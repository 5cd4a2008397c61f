package ids

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
	"ids/internal/wal"
)

// traceRingSize is the default bound on how many recent query traces
// the server retains for GET /trace and GET /traces.
const traceRingSize = 64

// retryAfterSeconds is the backoff hint sent with 429 responses.
const retryAfterSeconds = 1

// AdmissionConfig tunes the server's query admission controller: how
// many MPP worlds may run at once, how many queries may wait for a
// slot, and how long they wait before the server sheds them.
type AdmissionConfig struct {
	// MaxInFlight is the number of concurrently executing queries.
	// Default: max(2, GOMAXPROCS) — each query runs its own MPP world
	// of rank goroutines, so the processor count is the natural bound.
	MaxInFlight int
	// MaxQueue is how many queries may wait for a slot beyond the
	// in-flight limit; arrivals past it get 429 immediately.
	// Default: 4 * MaxInFlight.
	MaxQueue int
	// QueueTimeout is the longest a queued query waits before the
	// server sheds it with 429 + Retry-After. Default: 2s.
	QueueTimeout time.Duration
}

// DefaultAdmissionConfig derives the default limits from GOMAXPROCS.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{}.withDefaults()
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
		if c.MaxInFlight < 2 {
			c.MaxInFlight = 2
		}
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Admission rejection reasons (the 429 body and metric label).
var (
	errQueueFull    = errors.New("ids: admission queue full")
	errQueueTimeout = errors.New("ids: admission queue wait timed out")
)

// admission is a bounded-concurrency admission controller: a counting
// semaphore with a FIFO wait queue (channel send order is FIFO), a
// queue cap, and a per-query wait timeout. It publishes in-flight
// count, queue depth, queue wait, and rejection counts to the engine's
// metrics registry.
type admission struct {
	cfg AdmissionConfig
	// slots holds the free admission-slot indexes (receive = acquire).
	// The index identifies the slot for the query's lifetime and keys
	// the engine's columnar arena reuse: slot k always reuses slot k's
	// warm arenas, bounding the arena working set at MaxInFlight sets.
	slots  chan int
	queued atomic.Int64

	inflight        *obs.Gauge
	queueDepth      *obs.Gauge
	waitSeconds     *obs.Histogram
	rejectedFull    *obs.Counter
	rejectedTimeout *obs.Counter
}

func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	cfg = cfg.withDefaults()
	reg.Describe("ids_inflight_queries", "Queries currently executing (admission slots held).")
	reg.Describe("ids_admission_queue_depth", "Queries waiting for an admission slot.")
	reg.Describe("ids_admission_wait_seconds", "Time admitted queries spent waiting for a slot (histogram).")
	reg.Describe("ids_admission_rejected_total", "Queries shed by the admission controller, by reason.")
	reg.Describe("ids_admission_max_inflight", "Configured in-flight query limit.")
	a := &admission{
		cfg:             cfg,
		slots:           make(chan int, cfg.MaxInFlight),
		inflight:        reg.Gauge("ids_inflight_queries"),
		queueDepth:      reg.Gauge("ids_admission_queue_depth"),
		waitSeconds:     reg.Histogram("ids_admission_wait_seconds", nil),
		rejectedFull:    reg.Counter("ids_admission_rejected_total", "reason", "queue_full"),
		rejectedTimeout: reg.Counter("ids_admission_rejected_total", "reason", "timeout"),
	}
	reg.Gauge("ids_admission_max_inflight").Set(float64(cfg.MaxInFlight))
	for i := 0; i < cfg.MaxInFlight; i++ {
		a.slots <- i
	}
	return a
}

// admit blocks until a slot is free, the queue overflows, the wait
// times out, or ctx is cancelled. On nil return the caller holds the
// returned slot and must release(slot); wait reports how long the
// query queued (zero on the fast path), which the server surfaces on
// the trace.
func (a *admission) admit(ctx context.Context) (slot int, wait time.Duration, err error) {
	select {
	case slot = <-a.slots:
		a.inflight.Add(1)
		a.waitSeconds.Observe(0)
		return slot, 0, nil
	default:
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.rejectedFull.Inc()
		return -1, 0, errQueueFull
	}
	a.queueDepth.Set(float64(a.queued.Load()))
	start := time.Now()
	timer := time.NewTimer(a.cfg.QueueTimeout)
	defer timer.Stop()
	defer func() {
		a.queued.Add(-1)
		a.queueDepth.Set(float64(a.queued.Load()))
	}()
	select {
	case slot = <-a.slots:
		wait = time.Since(start)
		a.waitSeconds.Observe(wait.Seconds())
		a.inflight.Add(1)
		return slot, wait, nil
	case <-timer.C:
		a.rejectedTimeout.Inc()
		return -1, time.Since(start), errQueueTimeout
	case <-ctx.Done():
		return -1, time.Since(start), ctx.Err()
	}
}

func (a *admission) release(slot int) {
	a.slots <- slot
	a.inflight.Add(-1)
}

// Server exposes an Engine over HTTP — the "query/update endpoint" the
// paper's Datastore Launcher opens. Queries pass through the admission
// controller and then run concurrently on the snapshot-isolated
// engine; updates bypass admission and serialize on the engine's
// writer lock. Endpoints:
//
//	POST /query   {"query": "...", "explain": bool} -> QueryResponse (429 + Retry-After when overloaded)
//	POST /module  {"name","source","reload"}        -> ModuleResponse
//	GET  /profile                                   -> merged UDF profile
//	GET  /stats                                     -> instance statistics (deprecated: prefer /metrics)
//	GET  /metrics                                   -> Prometheus text exposition
//	GET  /trace?id=q000001                          -> stored query trace (JSON)
//	GET  /traces                                    -> retained trace index (qid, wall, status, slow)
//	GET  /healthz                                   -> 200 ok (pure liveness)
//	GET  /readyz                                    -> 200 when serving, 503 while recovering/draining
type Server struct {
	Engine *Engine

	adm     *admission
	queries atomic.Int64
	log     *slog.Logger

	// ring retains recent query traces (every query is traced) plus
	// pinned slow queries, addressable via GET /trace and GET /traces.
	ring *obs.TraceRing

	// health, when set, backs GET /readyz; nil means "always ready"
	// (embedded servers without a launcher lifecycle).
	health *obs.Health

	// ckpt, when set, serves POST /checkpoint (durable instances only).
	ckpt func() (CheckpointInfo, error)

	slowTotal *obs.Counter

	// flightrec captures profile snapshots + the offending trace when a
	// query breaches the latency or allocation budget (GET /debug/flightrec).
	flightrec      *obs.FlightRecorder
	slowAllocBytes int64
	flightrecCaps  *obs.Counter
	flightrecSuppr *obs.Counter

	// exporter, when set, writes tail-retained traces as OTLP-JSON to
	// a file or collector endpoint (the -trace-export flag).
	exporter *insights.Exporter
	retained *obs.Counter
	dropped  *obs.Counter
}

// ServerConfig tunes the HTTP layer beyond admission control.
type ServerConfig struct {
	// Admission bounds concurrent query execution.
	Admission AdmissionConfig
	// SlowQuerySeconds pins traces at or above this wall time in the
	// slow-query log, logs them at WARN, and triggers a flight-recorder
	// capture (0 disables).
	SlowQuerySeconds float64
	// SlowQueryAllocBytes triggers a flight-recorder capture when a
	// query's physical allocation delta reaches this many bytes
	// (0 disables the allocation budget).
	SlowQueryAllocBytes int64
	// FlightRecorderSize bounds the retained flight-record ring
	// (default obs.DefaultFlightRecSize).
	FlightRecorderSize int
	// FlightRecorderMinInterval rate-limits captures (zero selects
	// obs.DefaultFlightRecInterval; negative disables the limit, for
	// tests).
	FlightRecorderMinInterval time.Duration
	// TraceRingSize bounds the retained trace ring (default 64).
	TraceRingSize int
	// TailSampleN retains every N-th query of each fingerprint in the
	// tail pipeline regardless of cost (0 selects the insights default;
	// negative disables 1-in-N sampling, leaving slow/error/alloc as
	// the only retention reasons).
	TailSampleN int
	// InsightsTopK bounds the workload observatory's fingerprint sketch
	// (0 selects the insights default).
	InsightsTopK int
	// TraceExporter, when non-nil, receives every tail-retained trace
	// as OTLP-JSON (see insights.NewExporter / the -trace-export flag).
	TraceExporter *insights.Exporter
	// Logger receives request/slow-query lines (default: engine logger).
	Logger *slog.Logger
}

// QueryRequest is the /query payload.
type QueryRequest struct {
	Query string `json:"query"`
	// Explain asks the server to trace this query and return the span
	// trace in the response (also stored for later GET /trace).
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the /query result. QID is the query's correlation
// id: it appears in every server log line for the query, resolves via
// GET /trace?id=<qid>, and the query's latency lands in the
// ids_query_duration_seconds histogram.
type QueryResponse struct {
	QID string `json:"qid"`
	// TraceParent is the query's resolved W3C trace context: the
	// caller's ingested `traceparent` header when one was sent, else a
	// freshly minted one — so external callers correlate their
	// distributed trace with this qid without scraping /trace.
	TraceParent string             `json:"traceparent,omitempty"`
	Vars        []string           `json:"vars"`
	Rows        [][]string         `json:"rows"`
	Makespan    float64            `json:"makespan_seconds"`
	Phases      map[string]float64 `json:"phases"`
	Plan        string             `json:"plan"`
	WallTime    float64            `json:"wall_seconds"`
	TraceID     string             `json:"trace_id,omitempty"`
	// Fingerprint is the query's workload shape hash — the key into
	// GET /insights and the ids_fingerprint_* metric series.
	Fingerprint string `json:"fingerprint,omitempty"`
	// TailRetained/TailReason report the tail-sampling decision: when
	// true, the full trace is pinned past ring eviction (and exported,
	// if an exporter is configured) for the listed reason(s).
	TailRetained bool            `json:"tail_retained,omitempty"`
	TailReason   string          `json:"tail_reason,omitempty"`
	Trace        *obs.QueryTrace `json:"trace,omitempty"`
}

// ModuleRequest is the /module payload.
type ModuleRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Reload bool   `json:"reload"`
}

// ModuleResponse is the /module result.
type ModuleResponse struct {
	Loaded bool `json:"loaded"`
}

// StatsResponse is the /stats result.
type StatsResponse struct {
	Triples int      `json:"triples"`
	Terms   int      `json:"terms"`
	Shards  int      `json:"shards"`
	Nodes   int      `json:"nodes"`
	Ranks   int      `json:"ranks"`
	UDFs    []string `json:"udfs"`
	Queries int64    `json:"queries_served"`
}

// NewServer wraps an engine with the default admission limits.
func NewServer(e *Engine) *Server {
	return NewServerConfig(e, ServerConfig{})
}

// NewServerWith wraps an engine with explicit admission limits.
func NewServerWith(e *Engine, cfg AdmissionConfig) *Server {
	return NewServerConfig(e, ServerConfig{Admission: cfg})
}

// NewServerConfig wraps an engine with full HTTP-layer configuration.
func NewServerConfig(e *Engine, cfg ServerConfig) *Server {
	if cfg.TraceRingSize <= 0 {
		cfg.TraceRingSize = traceRingSize
	}
	lg := cfg.Logger
	if lg == nil {
		lg = e.Logger()
	}
	reg := e.Metrics()
	reg.Describe("ids_slow_queries_total", "Queries whose wall time reached the slow-query threshold.")
	// Engines embedded without a launcher run in-memory; the launcher
	// calls SetBuildInfo with the real fsync policy before this runs,
	// and the first call wins.
	e.SetBuildInfo("in-memory")
	frInterval := cfg.FlightRecorderMinInterval
	switch {
	case frInterval == 0:
		frInterval = obs.DefaultFlightRecInterval
	case frInterval < 0:
		frInterval = 0 // disabled (tests)
	}
	// Align the workload observatory's tail thresholds with the
	// server's slow-query budgets, so "slow" means the same thing on
	// the WARN line, the flight recorder, and the tail sampler.
	e.ConfigureInsights(insights.Config{
		TopK:        cfg.InsightsTopK,
		SampleN:     cfg.TailSampleN,
		SlowSeconds: cfg.SlowQuerySeconds,
		AllocBudget: cfg.SlowQueryAllocBytes,
	})
	reg.Describe("ids_tail_retained_total", "Traces retained by the tail sampler.")
	reg.Describe("ids_tail_dropped_total", "Traces not retained by the tail sampler (recent-ring only).")
	s := &Server{
		Engine:         e,
		adm:            newAdmission(cfg.Admission, reg),
		log:            obs.OrNop(lg),
		ring:           obs.NewTraceRing(cfg.TraceRingSize, cfg.SlowQuerySeconds),
		slowTotal:      reg.Counter("ids_slow_queries_total"),
		flightrec:      obs.NewFlightRecorder(cfg.FlightRecorderSize, frInterval),
		slowAllocBytes: cfg.SlowQueryAllocBytes,
		flightrecCaps:  reg.Counter("ids_flightrec_captures_total"),
		flightrecSuppr: reg.Counter("ids_flightrec_suppressed_total"),
		exporter:       cfg.TraceExporter,
		retained:       reg.Counter("ids_tail_retained_total"),
		dropped:        reg.Counter("ids_tail_dropped_total"),
	}
	s.registerFingerprintMetrics(reg)
	return s
}

// SetHealth wires the launcher's lifecycle state into GET /readyz.
func (s *Server) SetHealth(h *obs.Health) { s.health = h }

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/vector/upsert", s.handleVectorUpsert)
	mux.HandleFunc("/vector/search", s.handleVectorSearch)
	mux.HandleFunc("/module", s.handleModule)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/insights", s.handleInsights)
	mux.HandleFunc("/debug/flightrec", s.handleFlightRec)
	return mux
}

// handleReadyz reports readiness: 503 with the lifecycle state while
// the instance is starting, replaying its WAL, or draining; 200 once
// queries can be served. /healthz stays pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.health != nil && !s.health.Ready() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, s.health.State().String())
		return
	}
	// A degraded engine still answers queries from memory, but an
	// orchestrator should stop routing writes here and raise an alarm:
	// readiness reports the degradation while /query keeps working.
	if reason, ok := s.Engine.Degraded(); ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded (read-only): %s\n", reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The qid is minted at admission so even shed queries correlate:
	// the 429 log line and the client's retry logging share the id.
	qid := obs.NewQID()
	ctx := obs.WithQID(r.Context(), qid)
	// W3C trace context: join the caller's distributed trace when a
	// valid traceparent header arrives, else mint a fresh one. The
	// resolved value rides the request context (log lines, WAL append,
	// operator spans) and is echoed in the response header and body so
	// the caller can correlate without scraping /trace.
	tc, tcErr := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if tcErr != nil {
		tc = obs.NewTraceContext()
	}
	ctx = obs.WithTraceContext(ctx, tc)
	w.Header().Set("Traceparent", tc.String())
	slot, queueWait, err := s.adm.admit(ctx)
	if err != nil {
		if errors.Is(err, errQueueFull) || errors.Is(err, errQueueTimeout) {
			s.log.Warn("query shed", "qid", qid, "reason", err.Error())
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, err) // client went away
		return
	}
	defer s.adm.release(slot)
	// The slot index keys columnar arena reuse in the engine: queries
	// admitted on the same slot reuse the same warm arena set.
	ctx = withSlot(ctx, slot)
	start := time.Now()
	// Every query is traced so every qid resolves via GET /trace; the
	// full span tree is embedded in the response only on explain.
	res, err := s.Engine.QueryTracedCtx(ctx, req.Query)
	wall := time.Since(start).Seconds()
	s.queries.Add(1)
	if err != nil {
		// Failed queries retain a full stub trace — errors are always a
		// tail-worthy outcome — so the qid still resolves and the failure
		// reaches the export pipeline alongside slow successes.
		stub := &obs.QueryTrace{
			ID: qid, Query: req.Query, Start: start,
			Status: "error", Error: err.Error(), WallSeconds: wall,
			QueueWaitSeconds: queueWait.Seconds(),
			Fingerprint:      plan.FormatFingerprint(plan.FingerprintString(req.Query)),
			TraceParent:      tc.String(),
		}
		s.ring.PutRetained(stub, true, "error")
		s.retained.Inc()
		s.exportTrace(stub)
		s.log.ErrorContext(ctx, "query failed", "wall_seconds", wall, "err", err)
		// A rank panic is a server fault, not a bad request.
		code := http.StatusBadRequest
		if errors.Is(err, mpp.ErrPanic) {
			code = http.StatusInternalServerError
		}
		writeErr(w, code, err)
		return
	}
	var retain bool
	var reason string
	if res.Tail != nil {
		retain, reason = res.Tail.Retain, res.Tail.Reason()
	}
	if res.Trace != nil {
		res.Trace.WallSeconds = wall
		res.Trace.QueueWaitSeconds = queueWait.Seconds()
		s.ring.PutRetained(res.Trace, retain, reason)
		if retain {
			s.retained.Inc()
			s.exportTrace(res.Trace)
		} else {
			s.dropped.Inc()
		}
		// "slow" keeps its pre-tail-sampling contract: the WARN line,
		// ids_slow_queries_total, and the flight recorder fire exactly
		// when the tail decision includes the slow reason.
		slow := strings.Contains(","+reason+",", ",slow,")
		if slow {
			s.slowTotal.Inc()
			s.log.WarnContext(ctx, "slow query",
				"wall_seconds", wall, "threshold_seconds", s.ring.Threshold(),
				"rows", len(res.Rows), "query", req.Query)
		}
		s.maybeFlightCapture(qid, slow, wall, res.Trace)
	}
	s.log.InfoContext(ctx, "query done",
		"wall_seconds", wall, "rows", len(res.Rows), "makespan_seconds", res.Report.Makespan)
	resp := QueryResponse{
		QID:          qid,
		TraceParent:  tc.String(),
		Vars:         res.Vars,
		Rows:         s.Engine.Strings(res),
		Makespan:     res.Report.Makespan,
		Phases:       res.Report.Phases,
		Plan:         res.Plan.Explain(),
		WallTime:     wall,
		Fingerprint:  plan.FormatFingerprint(res.Plan.Fingerprint),
		TailRetained: retain,
		TailReason:   reason,
	}
	if res.Trace != nil {
		resp.TraceID = res.Trace.ID
		if req.Explain {
			resp.Trace = res.Trace
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// maybeFlightCapture fires the flight recorder when a query breached
// its latency budget (slow, decided by the trace ring's threshold) or
// its allocation budget (SlowQueryAllocBytes against the trace's
// physical allocation delta).
func (s *Server) maybeFlightCapture(qid string, slow bool, wall float64, tr *obs.QueryTrace) {
	var allocBytes int64
	if tr.Resources != nil {
		allocBytes = tr.Resources.AllocBytes
	}
	allocBreach := s.slowAllocBytes > 0 && allocBytes >= s.slowAllocBytes
	if !slow && !allocBreach {
		return
	}
	reason := ""
	switch {
	case slow && allocBreach:
		reason = "latency+alloc"
	case slow:
		reason = "latency"
	default:
		reason = "alloc"
	}
	captured := s.flightrec.Capture(qid, reason, wall, allocBytes, tr)
	// Increment from this breach's own outcome rather than Set-ing a
	// Stats() snapshot: two concurrent breaches could Set out of order,
	// making the _total transiently decrease — which Prometheus reads
	// as a counter reset and inflates rate()/increase().
	if captured {
		s.flightrecCaps.Inc()
	} else {
		s.flightrecSuppr.Inc()
	}
	if captured {
		s.log.Warn("flight recorder capture", "qid", qid, "reason", reason,
			"wall_seconds", wall, "alloc_bytes", allocBytes)
	}
	if allocBreach {
		s.log.Warn("query exceeded alloc budget", "qid", qid,
			"alloc_bytes", allocBytes, "budget_bytes", s.slowAllocBytes)
	}
}

// handleFlightRec serves the flight recorder (GET /debug/flightrec):
// without parameters it lists retained captures newest-first; with
// ?id=<qid> it returns that capture's JSON (trace included); with
// ?id=<qid>&artifact=heap|goroutine it streams the raw profile bytes
// (heap is pprof protobuf for `go tool pprof`, goroutine is text).
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		caps, suppr := s.flightrec.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"captures":   caps,
			"suppressed": suppr,
			"records":    s.flightrec.Index(),
		})
		return
	}
	rec := s.flightrec.Get(id)
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("ids: no flight record %q", id))
		return
	}
	switch artifact := r.URL.Query().Get("artifact"); artifact {
	case "":
		writeJSON(w, http.StatusOK, rec)
	case "heap":
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(rec.HeapProfile)
	case "goroutine":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(rec.GoroutineProfile)
	default:
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("ids: unknown artifact %q (want heap or goroutine)", artifact))
	}
}

// openMetricsContentType labels the OpenMetrics exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// handleMetrics serves the engine registry in Prometheus text
// exposition format. A scraper that negotiates OpenMetrics
// (Accept: application/openmetrics-text) gets the exemplar-bearing
// exposition with its `# EOF` terminator; everyone else gets classic
// 0.0.4, whose parser would reject exemplar suffixes. Safe to scrape
// at any time: counters are atomic and the UDF-profile collector reads
// internally synchronized profilers, so no serialization against
// running queries is needed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", openMetricsContentType)
		s.Engine.Metrics().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Engine.Metrics().WritePrometheus(w)
}

// handleTrace serves a retained query trace by id (GET /trace?id=...);
// without an id it lists retained trace IDs, newest first (see GET
// /traces for the richer index). Evicted or unknown ids get 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		idx := s.ring.Index()
		ids := make([]string, len(idx))
		for i, e := range idx {
			ids[i] = e.ID
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": ids})
		return
	}
	if tr := s.ring.Get(id); tr != nil {
		writeJSON(w, http.StatusOK, tr)
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("ids: no stored trace %q", id))
}

// handleTraces serves the retained trace index (GET /traces): one row
// per retained trace with qid, start, wall time, status, and the slow
// flag; ?slow=1 restricts to the pinned slow-query log.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var idx []obs.TraceIndexEntry
	if r.URL.Query().Get("slow") != "" {
		idx = s.ring.Slow()
	} else {
		idx = s.ring.Index()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_seconds": s.ring.Threshold(),
		"traces":            idx,
	})
}

// UpdateRequest is the /update payload.
type UpdateRequest struct {
	Update string `json:"update"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Updates bypass admission: the engine's writer lock serializes
	// them against each other and against in-flight queries.
	res, err := s.Engine.Update(req.Update)
	if err != nil {
		// A WAL failure (this update's append, or an earlier one's
		// sticky degradation) is the server's fault, not the client's:
		// if the engine is degraded now, this was it.
		if _, degraded := s.Engine.Degraded(); degraded &&
			(errors.Is(err, ErrDegraded) || errors.Is(err, wal.ErrFailed) || strings.Contains(err.Error(), "wal append")) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ModuleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var err error
	if req.Reload {
		err = s.Engine.ReloadModule(req.Name, req.Source)
	} else {
		err = s.Engine.LoadModule(req.Name, req.Source)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ModuleResponse{Loaded: true})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	merged := s.Engine.MergedProfile()
	writeJSON(w, http.StatusOK, merged.Snapshot())
}

// handleSnapshot streams the graph's binary snapshot (GET /snapshot),
// the backup/fast-restart path. The engine read lock (inside
// SnapshotTo) excludes concurrent updates while streaming.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.Engine.SnapshotTo(w); err != nil {
		// Headers are gone; nothing more we can do than log via the
		// response trailer-less close.
		return
	}
}

// SetCheckpointer enables POST /checkpoint, backed by fn (the
// launcher wires this to the instance's checkpointer).
func (s *Server) SetCheckpointer(fn func() (CheckpointInfo, error)) { s.ckpt = fn }

// handleCheckpoint forces a checkpoint (POST /checkpoint) and returns
// the resulting snapshot name and covered LSN.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.ckpt == nil {
		writeErr(w, http.StatusConflict, errors.New("ids: durability not enabled (launch with -data-dir)"))
		return
	}
	info, err := s.ckpt()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleStats serves the legacy ad-hoc JSON statistics.
//
// Deprecated: /metrics carries the same operational data (and more) in
// Prometheus form; /stats remains for the CLI's human-readable view.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	q := s.queries.Load()
	writeJSON(w, http.StatusOK, StatsResponse{
		Triples: s.Engine.Graph.Len(),
		Terms:   s.Engine.Graph.Dict.Len(),
		Shards:  s.Engine.Graph.NumShards(),
		Nodes:   s.Engine.Topo.Nodes,
		Ranks:   s.Engine.Topo.Size(),
		UDFs:    s.Engine.Reg.Names(),
		Queries: q,
	})
}

// Serve listens on addr (":0" picks a free port) until the listener is
// closed. It returns the bound address through the ready callback.
func (s *Server) Serve(addr string, ready func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return http.Serve(ln, s.Handler())
}
