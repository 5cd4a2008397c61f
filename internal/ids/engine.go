// Package ids is the framework facade of the Intelligent Data Search
// reproduction: the Engine combines the knowledge graph, the UDF
// registry with its dynamic-module loader, and the MPP runtime into a
// queryable backend; the Launcher/Agent/Client/HTTP layers mirror the
// paper's deployment components (Datastore Launcher, Datastore Agent,
// Datastore Client, IDS backend).
package ids

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/cache"
	"ids/internal/dict"
	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
	"ids/internal/script"
	"ids/internal/sparql"
	"ids/internal/text"
	"ids/internal/udf"
	"ids/internal/vecstore"
	"ids/internal/wal"
)

// Options tunes query execution; the zero value enables the paper's
// optimizations.
type Options struct {
	// Reorder enables §2.4.3 FILTER conjunct reordering.
	Reorder bool
	// Rebalance selects §2.4.2 solution re-balancing before FILTERs.
	Rebalance exec.RebalanceMode
	// SpeedFactor models heterogeneous node speeds per rank (nil =
	// homogeneous).
	SpeedFactor func(rank int) float64
	// Columnar selects batch/vector execution of the pre-gather
	// pipeline (DESIGN.md §11): operators exchange dict-ID column
	// batches in arena-backed buffers and rows materialize once, at
	// gather. Result sets are identical to row execution.
	Columnar bool
}

// DefaultOptions enables reordering, cost-aware re-balancing, and
// columnar execution.
func DefaultOptions() Options {
	return Options{Reorder: true, Rebalance: exec.RebalanceCost, Columnar: true}
}

// Engine is one running IDS backend instance.
//
// Concurrency contract (snapshot isolation): Engine IS safe for
// concurrent read queries. Query/Execute/CachedQuery take the read
// half of an RWMutex and read the sealed graph, dictionary, text
// index, and vector stores read-only; any number of MPP worlds may run
// at once. Update takes the exclusive writer lock, mutates the graph,
// swaps in fresh (immutable-after-build) planner statistics, and bumps
// the atomic update epoch that keys the result cache — so readers
// observe either the pre- or post-update graph, never a mix, and stale
// cache entries can never hit. Per-rank UDF profiles are read through
// per-query overlay profilers and merged back after the run, so
// concurrent queries never contend on them mid-flight. Setup calls
// (EnableTextSearch, EnableResultCache, AttachVectors, module loads)
// are writer-locked; accessors (Decode, Strings, Profiler, Metrics)
// are safe concurrently with running queries.
type Engine struct {
	Graph  *kg.Graph
	Reg    *udf.Registry
	Loader *script.Loader
	Topo   mpp.Topology
	Net    mpp.NetModel
	Seed   int64
	Opts   Options

	// mu implements snapshot isolation: queries hold the read lock
	// for their whole execution (acquired once by the coordinating
	// goroutine, never by rank goroutines, so MPP barriers cannot
	// deadlock against a waiting writer); Update holds the write lock.
	mu sync.RWMutex
	// stats is the planner's cardinality statistics. A *plan.Stats is
	// immutable after build; Update swaps in a fresh one atomically so
	// concurrent planners never observe a partially rebuilt snapshot.
	stats     atomic.Pointer[plan.Stats]
	profilers []*udf.Profiler
	// resultCache, when set, stashes whole query results in the
	// global cache (see resultcache.go).
	resultCache *cache.Cache
	// textIndex, when set, backs keyword search (see textsearch.go).
	textIndex *text.Index
	// vectors holds attached vector stores (see vectors.go).
	vectors map[string]*vecstore.Store
	// updates counts applied update statements — the engine's update
	// epoch. Part of the result-cache key so updates invalidate stale
	// entries; atomic so key derivation never races with a writer.
	updates atomic.Int64
	// wal, when set, makes updates durable: Update appends the record
	// (synced per the log's fsync policy) before mutating the graph.
	wal *wal.Log
	// walNotify, when set, is called after each durable update so the
	// background checkpointer can react to update volume.
	walNotify func()
	// met is the engine's metrics registry plus hot-path handles.
	met *engineMetrics
	// degraded, when non-nil, is the reason the engine entered
	// read-only degraded mode (a WAL append or fsync failure). Queries
	// keep running against the in-memory graph; updates fail fast with
	// ErrDegraded, /readyz turns 503, and ids_degraded reads 1. The
	// transition is one-way: only a restart (with a repaired log) clears
	// it.
	degraded atomic.Pointer[string]
	// tracing makes every query collect a span trace (Result.Trace).
	tracing atomic.Bool
	// workload is the insights observatory: per-fingerprint rolling
	// statistics and the tail-sampling decision for every query (never
	// nil; see ConfigureInsights).
	workload atomic.Pointer[insights.Observatory]
	// log is the engine's structured logger (never nil; defaults to the
	// nop logger). Query-path records carry the qid from the context.
	log atomic.Pointer[slog.Logger]
	// arenas recycles columnar execution arenas across queries, keyed
	// by the server's admission slot so a slot's working set stays warm
	// (see exec.ArenaPool).
	arenas *exec.ArenaPool
	// cres memoizes ID→Value resolution over the append-only
	// dictionary (safe across updates: IDs are immutable).
	cres *expr.CachedResolver
}

// NewEngine wires an engine over a sealed graph. The graph must have
// exactly one shard per rank.
func NewEngine(g *kg.Graph, topo mpp.Topology) (*Engine, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if g.NumShards() != topo.Size() {
		return nil, fmt.Errorf("ids: graph has %d shards but topology has %d ranks",
			g.NumShards(), topo.Size())
	}
	e := &Engine{
		Graph:  g,
		Reg:    udf.NewRegistry(),
		Loader: script.NewLoader(),
		Topo:   topo,
		Net:    mpp.DefaultNet(),
		Seed:   1,
		Opts:   DefaultOptions(),
		met:    newEngineMetrics(),
		arenas: exec.NewArenaPool(),
	}
	e.cres = expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
	e.stats.Store(plan.StatsFromGraph(g))
	e.log.Store(obs.NopLogger())
	e.workload.Store(insights.New(insights.Config{}))
	e.profilers = make([]*udf.Profiler, topo.Size())
	for i := range e.profilers {
		e.profilers[i] = udf.NewProfiler()
	}
	// Mirror the merged UDF profile into the registry at scrape time,
	// making /metrics the single source of truth for profiling data.
	e.met.reg.AddCollector(func(r *obs.Registry) {
		for name, s := range e.MergedProfile().Snapshot() {
			r.Counter("udf_execs_total", "udf", name).Set(float64(s.Execs))
			r.Counter("udf_seconds_total", "udf", name).Set(s.TotalSeconds)
			r.Counter("udf_rejections_total", "udf", name).Set(float64(s.Rejections))
		}
	})
	return e, nil
}

// Profiler returns rank r's persistent UDF profile (lives across
// queries, as the paper specifies).
func (e *Engine) Profiler(r int) *udf.Profiler { return e.profilers[r] }

// Metrics returns the engine's metrics registry (exposed by the
// server's /metrics endpoint). Scraping is safe at any time: counters
// are atomic and the UDF-profile collector reads the internally
// synchronized per-rank profilers.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// SetTracing toggles per-query span tracing: when on, every
// Query/Execute attaches an obs.QueryTrace to its Result. Overhead is
// a few timestamps per operator per rank; when off the traced path is
// skipped entirely. Safe to toggle while queries run.
func (e *Engine) SetTracing(on bool) { e.tracing.Store(on) }

// SetLogger wires the engine's structured logger (nil resets to the
// nop logger). Safe to call while queries run.
func (e *Engine) SetLogger(l *slog.Logger) { e.log.Store(obs.OrNop(l)) }

// Logger returns the engine's structured logger (never nil).
func (e *Engine) Logger() *slog.Logger { return e.log.Load() }

// Insights returns the workload observatory (never nil): the
// per-fingerprint heavy-hitter statistics and tail-sampling decisions
// accumulated over every query this engine ran.
func (e *Engine) Insights() *insights.Observatory { return e.workload.Load() }

// ConfigureInsights replaces the workload observatory with one built
// from cfg (called by the serving layer to align tail thresholds with
// the slow-query budgets). Resets accumulated statistics.
func (e *Engine) ConfigureInsights(cfg insights.Config) {
	e.workload.Store(insights.New(cfg))
}

// Result is a completed query.
type Result struct {
	Vars   []string
	Rows   [][]expr.Value
	Report *mpp.Report
	Plan   *plan.Plan
	// Trace is the query's span trace (nil unless tracing was enabled
	// for this query).
	Trace *obs.QueryTrace
	// Tail is the tail-sampling verdict the workload observatory made
	// for this query (nil for cache hits and untracked paths): whether
	// the full trace is worth retaining, and why.
	Tail *insights.Decision
}

// Decode renders a row value as a display string using the engine's
// dictionary.
func (e *Engine) Decode(v expr.Value) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.decode(v)
}

// decode is Decode without the read lock (caller holds it).
func (e *Engine) decode(v expr.Value) string {
	if v.Kind == expr.KindID {
		if t, ok := e.Graph.Dict.Decode(v.ID); ok {
			return t.String()
		}
		return fmt.Sprintf("id:%d", v.ID)
	}
	s := v.String()
	return strings.TrimPrefix(s, "")
}

// Strings decodes all rows.
func (e *Engine) Strings(res *Result) [][]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		sr := make([]string, len(row))
		for j, v := range row {
			sr[j] = e.decode(v)
		}
		out[i] = sr
	}
	return out
}

// SnapshotTo streams the graph's binary snapshot under the engine read
// lock, so no update can mutate the graph mid-stream.
func (e *Engine) SnapshotTo(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.Graph.Save(w)
}

// AttachWAL makes the engine durable: every subsequent Update appends
// its record to l (append-then-apply, under the writer lock) before
// mutating the graph, and the log's append/fsync/byte counters are
// mirrored into /metrics at scrape time. Attach after replaying the
// log (see replayWAL), so recovered records are not re-appended.
func (e *Engine) AttachWAL(l *wal.Log) {
	e.mu.Lock()
	e.wal = l
	e.mu.Unlock()
	fsyncHist := e.met.reg.Histogram("ids_wal_fsync_seconds", nil)
	l.SetFsyncObserver(fsyncHist.Observe)
	e.met.reg.AddCollector(func(r *obs.Registry) {
		st := l.Stats()
		r.Counter("ids_wal_appends_total").Set(float64(st.Appends))
		r.Counter("ids_wal_fsyncs_total").Set(float64(st.Fsyncs))
		r.Counter("ids_wal_bytes_total").Set(float64(st.AppendedBytes))
	})
}

// setWALNotify registers the checkpointer's update hook (must not
// block; called with the writer lock held).
func (e *Engine) setWALNotify(fn func()) {
	e.mu.Lock()
	e.walNotify = fn
	e.mu.Unlock()
}

// ErrDegraded reports an update rejected because the engine is in
// read-only degraded mode after a WAL failure.
var ErrDegraded = errors.New("ids: engine degraded (read-only): WAL failed")

// Degraded reports whether the engine is in read-only degraded mode
// and, if so, the reason.
func (e *Engine) Degraded() (string, bool) {
	if r := e.degraded.Load(); r != nil {
		return *r, true
	}
	return "", false
}

// markDegraded flips the engine into read-only degraded mode (one-way;
// the first reason wins). Queries keep serving from memory; updates,
// checkpoints, and readiness all refuse until restart.
func (e *Engine) markDegraded(reason string) {
	if !e.degraded.CompareAndSwap(nil, &reason) {
		return
	}
	e.met.reg.Gauge("ids_degraded").Set(1)
	e.Logger().Error("engine degraded: updates disabled, serving reads only",
		"reason", reason)
}

// Query parses, plans and executes a query across all ranks, returning
// the gathered result and the timing report. Safe for concurrent use;
// queries run under the engine's read lock (see the concurrency
// contract above).
func (e *Engine) Query(qs string) (*Result, error) {
	return e.QueryCtx(context.Background(), qs)
}

// QueryCtx is Query with a caller context: the context's qid (see
// obs.WithQID) becomes the trace ID and stamps every log record the
// query emits, tying the log stream, /trace, and the response together.
func (e *Engine) QueryCtx(ctx context.Context, qs string) (*Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(ctx, qs, e.tracing.Load())
}

// QueryTraced is Query with span tracing forced on for this one call;
// Result.Trace carries the collected trace.
func (e *Engine) QueryTraced(qs string) (*Result, error) {
	return e.QueryTracedCtx(context.Background(), qs)
}

// QueryTracedCtx is QueryCtx with span tracing forced on.
func (e *Engine) QueryTracedCtx(ctx context.Context, qs string) (*Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(ctx, qs, true)
}

// queryLocked runs one query; the caller holds the engine read lock.
func (e *Engine) queryLocked(ctx context.Context, qs string, traced bool) (*Result, error) {
	start := time.Now()
	q, err := sparql.Parse(qs)
	if err != nil {
		e.met.queryErrors.Inc()
		// Unparseable queries share fingerprint 0: still counted, so a
		// flood of garbage shows up as one hot (error-only) shape.
		e.observeWorkload(ctx, insights.Observation{
			Query: qs, Seconds: time.Since(start).Seconds(), Error: true,
		})
		e.Logger().ErrorContext(ctx, "query parse failed", "err", err)
		return nil, err
	}
	return e.execute(ctx, q, traced, qs, start, time.Since(start).Seconds())
}

// Execute runs a parsed query.
func (e *Engine) Execute(q *sparql.Query) (*Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.execute(context.Background(), q, e.tracing.Load(), "", time.Now(), 0)
}

func (e *Engine) execute(ctx context.Context, q *sparql.Query, traced bool, qs string, start time.Time, parseSec float64) (*Result, error) {
	lg := e.Logger()
	// Bracket the query with the runtime's cumulative allocation
	// counters and the global cache's tier stats: completion deltas are
	// the query's physical resource/cache attribution. Process-global,
	// so concurrent neighbours over-attribute — see obs.ResourceUsage.
	alloc0 := obs.ReadAllocs()
	var cache0 cache.Stats
	if e.resultCache != nil {
		cache0 = e.resultCache.Stats()
	}
	planStart := time.Now()
	pl, err := plan.Build(q, e.stats.Load())
	if err != nil {
		e.met.queryErrors.Inc()
		e.observeWorkload(ctx, insights.Observation{
			Fingerprint: plan.Fingerprint(q), Query: qs,
			Seconds: time.Since(start).Seconds(), Error: true,
		})
		lg.ErrorContext(ctx, "query plan failed", "err", err)
		return nil, err
	}
	planSec := time.Since(planStart).Seconds()
	lg.DebugContext(ctx, "query planned",
		"parse_seconds", parseSec, "plan_seconds", planSec, "traced", traced)

	var recs []*obs.RankRecorder
	if traced {
		recs = make([]*obs.RankRecorder, e.Topo.Size())
		for i := range recs {
			recs[i] = obs.NewRankRecorder(i)
		}
	}

	// Per-query overlay profilers: ranks record into them without
	// contending with concurrent queries; estimator reads see the
	// persistent per-rank history plus this query's own records.
	qprofs := make([]*udf.Profiler, e.Topo.Size())
	for i := range qprofs {
		qprofs[i] = udf.NewProfilerOver(e.profilers[i])
	}

	// Columnar arenas: acquired for the whole world before the rank
	// goroutines start and returned only after mpp.Run has joined them
	// all, so a recycled arena can never be reset while a rank still
	// writes into it. Keyed by the admission slot (when the server path
	// put one in the context) so a slot's warm working set follows it.
	var arenas []*exec.Arena
	if e.Opts.Columnar {
		slot := slotFrom(ctx)
		arenas = e.arenas.Get(slot, e.Topo.Size())
		defer e.arenas.Put(slot, arenas)
	}

	execStart := time.Now()
	var out *exec.Table
	report, err := mpp.RunCtx(ctx, e.Topo, e.Net, e.Seed, func(r *mpp.Rank) error {
		var rec *obs.RankRecorder
		if recs != nil {
			rec = recs[r.ID()]
		}
		tab, err := e.queryRank(ctx, r, pl, rec, qprofs, arenas)
		if r.ID() == 0 {
			out = tab
		}
		return err
	})
	// Fold the query's profiling deltas into the persistent per-rank
	// profiles (even on error: partial executions still inform cost
	// estimates, as they did when profiles were recorded in place).
	for i, qp := range qprofs {
		if snap := qp.Snapshot(); len(snap) > 0 {
			e.profilers[i].Merge(snap)
		}
	}
	if err != nil {
		e.met.queryErrors.Inc()
		allocB, _ := obs.ReadAllocs().DeltaSince(alloc0)
		e.observeWorkload(ctx, insights.Observation{
			Fingerprint: pl.Fingerprint, Query: qs,
			Seconds: time.Since(start).Seconds(), AllocBytes: allocB, Error: true,
		})
		lg.ErrorContext(ctx, "query execution failed", "err", err,
			"wall_seconds", time.Since(start).Seconds())
		return nil, err
	}
	res := &Result{Vars: out.Vars, Rows: out.Rows, Report: report, Plan: pl}
	wall := time.Since(start).Seconds()
	allocB, allocM := obs.ReadAllocs().DeltaSince(alloc0)
	ru := &obs.ResourceUsage{AllocBytes: allocB, Mallocs: allocM}
	if traced {
		// The context's qid (minted at admission) is the trace ID, so
		// the log stream, GET /trace?id=, and the response share one
		// handle; engine-direct callers without a qid get a fresh one.
		id := obs.QID(ctx)
		if id == "" {
			id = obs.NewTraceID()
		}
		tr := obs.BuildTrace(id, qs, start, recs, true)
		tr.Status = "ok"
		tr.Fingerprint = plan.FormatFingerprint(pl.Fingerprint)
		if tc, ok := obs.TraceContextFrom(ctx); ok {
			tr.TraceParent = tc.String()
		}
		tr.ParseSeconds = parseSec
		tr.PlanSeconds = planSec
		tr.ExecSeconds = time.Since(execStart).Seconds()
		tr.WallSeconds = wall
		tr.Makespan = report.Makespan
		tr.Rows = len(res.Rows)
		tr.Phases = report.Phases
		tr.Collectives = report.Comm.Collectives
		tr.CommBytes = report.Comm.Bytes
		tr.CommSeconds = report.Comm.Seconds
		tr.Plan = pl.Explain()
		// Operator-local sums and the CPU proxy come from the assembled
		// per-operator aggregates.
		for _, op := range tr.Ops {
			ru.OpAllocBytes += op.AllocBytes
			ru.OpMallocs += op.Mallocs
			ru.CPUSeconds += op.CPUSeconds
		}
		tr.Resources = ru
		if e.resultCache != nil {
			c1 := e.resultCache.Stats()
			tr.Cache = &obs.CacheInfo{
				DRAMLocal:    c1.DRAMHitsLocal - cache0.DRAMHitsLocal,
				DRAMRemote:   c1.DRAMHitsRemote - cache0.DRAMHitsRemote,
				SSD:          c1.SSDHits - cache0.SSDHits,
				Stash:        c1.StashHits - cache0.StashHits,
				Misses:       c1.Misses - cache0.Misses,
				ResultHits:   int64(e.met.resultCacheHits.Value()),
				ResultMisses: int64(e.met.resultCacheMisses.Value()),
			}
		}
		res.Trace = tr
	}
	e.met.observeQuery(res, report, wall, ru)
	_, degraded := e.Degraded()
	res.Tail = e.observeWorkload(ctx, insights.Observation{
		Fingerprint: pl.Fingerprint, Query: qs,
		Seconds: wall, AllocBytes: allocB, Rows: len(res.Rows), Degraded: degraded,
	})
	lg.DebugContext(ctx, "query done",
		"rows", len(res.Rows), "wall_seconds", wall, "makespan_seconds", report.Makespan)
	return res, nil
}

// observeWorkload records one finished query with the workload
// observatory, stamping the context's qid, and returns the tail
// decision.
func (e *Engine) observeWorkload(ctx context.Context, ob insights.Observation) *insights.Decision {
	ob.QID = obs.QID(ctx)
	d := e.workload.Load().Observe(ob)
	return &d
}

// queryRank is one rank's share of an engine query. On the columnar
// path every rank runs the plan through the gather collective, and only
// rank 0 finishes it into the result table — the one table execute
// reads; the other ranks return nil. The row engine, kept as the
// equivalence oracle, finishes on every rank.
func (e *Engine) queryRank(ctx context.Context, r *mpp.Rank, pl *plan.Plan, rec *obs.RankRecorder, profs []*udf.Profiler, arenas []*exec.Arena) (*exec.Table, error) {
	if !e.Opts.Columnar {
		return e.runPlanRows(ctx, r, pl, rec, profs)
	}
	g, err := e.gatherPlanBatch(ctx, r, pl, rec, profs, arenas[r.ID()])
	if err != nil {
		return nil, err
	}
	if r.ID() != 0 {
		skipFinish(r, pl, g, rec)
		return nil, nil
	}
	return e.finishPlanBatch(r, pl, g, rec)
}

// RunPlan executes the plan steps on one rank and returns the final
// (gathered, ordered, projected) table — identical on every rank:
// unlike the engine's own query path, every rank finishes the plan.
// Exposed so workflow drivers can embed queries inside a larger
// mpp.Run with extra stages (e.g. docking every survivor on every
// rank) in the same world. It records straight into the persistent
// per-rank profiles (which are internally synchronized) and gives each
// rank a private arena; the caller is responsible for excluding
// concurrent updates for the duration of its world.
func (e *Engine) RunPlan(r *mpp.Rank, pl *plan.Plan) (*exec.Table, error) {
	ctx := context.Background()
	if !e.Opts.Columnar {
		return e.runPlanRows(ctx, r, pl, nil, e.profilers)
	}
	g, err := e.gatherPlanBatch(ctx, r, pl, nil, e.profilers, exec.NewArena())
	if err != nil {
		return nil, err
	}
	return e.finishPlanBatch(r, pl, g, nil)
}

// runPlanRows executes the plan on one rank through the row operators
// and returns the final table on every rank, with an optional per-rank
// trace recorder and an explicit profiler set (per-query overlays on
// the engine's query path, the persistent profiles for RunPlan).
func (e *Engine) runPlanRows(ctx context.Context, r *mpp.Rank, pl *plan.Plan, rec *obs.RankRecorder, profs []*udf.Profiler) (*exec.Table, error) {
	tab, err := e.runSteps(ctx, r, pl.Steps, nil, rec, profs, 0)
	if err != nil {
		return nil, err
	}

	r.SetPhase("merge")
	if pl.Distinct {
		ot := startOp(rec, r)
		in := tab.Len()
		tab, err = exec.DistinctGlobal(r, tab)
		if err != nil {
			return nil, err
		}
		ab, am := tab.FootprintShallow()
		ot.record(rec, r, obs.OpSample{Op: "distinct", RowsIn: in, RowsOut: tab.Len(),
			AllocBytes: ab, Mallocs: am})
	}
	ot := startOp(rec, r)
	in := tab.Len()
	tab, err = exec.Gather(r, tab)
	if err != nil {
		return nil, err
	}
	gb, gm := tab.FootprintShallow()
	ot.record(rec, r, obs.OpSample{Op: "gather", RowsIn: in, RowsOut: tab.Len(),
		AllocBytes: gb, Mallocs: gm})
	r.SetPhase("finish")
	tab = e.applyBinds(r, pl, tab, rec)
	if len(pl.Aggregates) > 0 {
		ot := startOp(rec, r)
		in := tab.Len()
		tab, err = exec.Aggregate(tab, pl.GroupBy, pl.Aggregates, e.res())
		if err != nil {
			return nil, err
		}
		ab, am := tab.Footprint()
		ot.record(rec, r, obs.OpSample{Op: "aggregate", RowsIn: in, RowsOut: tab.Len(),
			AllocBytes: ab, Mallocs: am})
	}
	tab.SortBy(pl.OrderBy, e.res())
	if pl.Limit >= 0 || pl.Offset > 0 {
		tab = tab.Slice(pl.Offset, pl.Limit)
	}
	tab, err = tab.Project(pl.Select)
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// applyBinds runs the plan's BIND columns and their dependent
// post-filters on the gathered table — the shared late phase of both
// engines (exec/bind.go explains why BIND sits post-gather).
func (e *Engine) applyBinds(r *mpp.Rank, pl *plan.Plan, tab *exec.Table, rec *obs.RankRecorder) *exec.Table {
	res := e.res()
	if len(pl.Binds) > 0 {
		ot := startOp(rec, r)
		in := tab.Len()
		tab = exec.ApplyBinds(r, tab, pl.Binds, e.Reg, res)
		if rec != nil {
			ab, am := tab.Footprint()
			ot.record(rec, r, obs.OpSample{Op: "bind", RowsIn: in, RowsOut: tab.Len(),
				Label: fmt.Sprintf("%d columns", len(pl.Binds)), AllocBytes: ab, Mallocs: am})
		}
	}
	if len(pl.PostFilters) > 0 {
		ot := startOp(rec, r)
		in := tab.Len()
		tab = exec.ApplyPostFilters(r, tab, pl.PostFilters, e.Reg, res)
		ot.record(rec, r, obs.OpSample{Op: "filter", RowsIn: in, RowsOut: tab.Len(),
			Note: "post-bind"})
	}
	return tab
}

// runSteps executes a step list against the rank's shard, starting
// from tab (nil = the first scan seeds the table). UNION branches
// recurse with a fresh table. When rec is non-nil every operator
// appends one OpSample; all ranks run the identical plan so sample
// sequences zip across ranks.
func (e *Engine) runSteps(ctx context.Context, r *mpp.Rank, steps []plan.Step, tab *exec.Table, rec *obs.RankRecorder, profs []*udf.Profiler, depth int) (*exec.Table, error) {
	shard := e.Graph.Shard(r.ID())
	prof := profs[r.ID()]
	res := e.res()
	speed := 1.0
	if e.Opts.SpeedFactor != nil {
		speed = e.Opts.SpeedFactor(r.ID())
	}
	// Rank 0 narrates planner decisions (conjunct order, re-balance
	// traffic) at Debug; one rank is enough — all ranks share the plan.
	var flog *slog.Logger
	if r.ID() == 0 {
		flog = e.Logger()
	}
	for _, step := range steps {
		switch s := step.(type) {
		case plan.ScanStep:
			r.SetPhase("scan")
			ot := startOp(rec, r)
			t, err := exec.Scan(r, shard, e.Graph.Dict, s.Pattern)
			if err != nil {
				return nil, err
			}
			sb, sm := t.Footprint()
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "scan", Label: s.Pattern.String(), RowsOut: t.Len(),
				AllocBytes: sb, Mallocs: sm})
			if tab == nil {
				tab = t
			} else {
				r.SetPhase("join")
				jt := startOp(rec, r)
				in := tab.Len() + t.Len()
				build := t.Len()
				tab, err = exec.HashJoin(r, tab, t)
				if err != nil {
					return nil, err
				}
				jb, jm := joinFootprint(tab, build)
				jt.record(rec, r, obs.OpSample{Depth: depth, Op: "join", RowsIn: in, RowsOut: tab.Len(),
					AllocBytes: jb, Mallocs: jm})
			}
		case plan.JoinStep:
			r.SetPhase("scan")
			ot := startOp(rec, r)
			right, err := exec.Scan(r, shard, e.Graph.Dict, s.Pattern)
			if err != nil {
				return nil, err
			}
			sb, sm := right.Footprint()
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "scan", Label: s.Pattern.String(), RowsOut: right.Len(),
				AllocBytes: sb, Mallocs: sm})
			r.SetPhase("join")
			jt := startOp(rec, r)
			in := tab.Len() + right.Len()
			build := right.Len()
			tab, err = exec.HashJoin(r, tab, right)
			if err != nil {
				return nil, err
			}
			jb, jm := joinFootprint(tab, build)
			jt.record(rec, r, obs.OpSample{Depth: depth, Op: "join", RowsIn: in, RowsOut: tab.Len(),
				AllocBytes: jb, Mallocs: jm})
		case plan.FilterStep:
			r.SetPhase("filter")
			ft := startOp(rec, r)
			t, fstats, err := exec.Filter(r, tab, s.Expr, e.Reg, prof, res, exec.FilterOpts{
				Reorder:     e.Opts.Reorder,
				Rebalance:   e.Opts.Rebalance,
				SpeedFactor: speed,
				Logger:      flog,
				// The request context rides along so the obs handler
				// stamps qid and traceparent onto operator lines.
				Ctx: ctx,
			})
			if err != nil {
				return nil, err
			}
			tab = t
			if fstats.Rebalance.Sent > 0 {
				e.met.rebalanceMoved.Add(float64(fstats.Rebalance.Sent))
			}
			if rec != nil {
				if e.Opts.Rebalance != exec.RebalanceNone {
					rec.Record(obs.OpSample{
						Depth: depth, Op: "rebalance",
						RowsIn: fstats.RowsBefore, RowsOut: fstats.Evaluated,
						VT:   fstats.RebalanceSeconds,
						Note: fmt.Sprintf("sent=%d recv=%d", fstats.Rebalance.Sent, fstats.Rebalance.Received),
					})
				}
				ft.vt0 += fstats.RebalanceSeconds // attribute re-balancing VT to its own span
				fb, fm := tab.FootprintShallow()  // filter keeps row references
				ft.record(rec, r, obs.OpSample{
					Depth: depth, Op: "filter",
					RowsIn: fstats.Evaluated, RowsOut: fstats.Passed,
					AllocBytes: fb, Mallocs: fm,
					Note: "order: " + strings.Join(fstats.Order, " AND "),
				})
			}
			// Global sync after independent per-rank evaluation
			// (paper: ranks sync solutions only once evaluation
			// completes).
			if err := r.Barrier(); err != nil {
				return nil, err
			}
		case plan.UnionStep:
			var unionTab *exec.Table
			for _, branch := range s.Branches {
				bt, err := e.runSteps(ctx, r, branch, nil, rec, profs, depth+1)
				if err != nil {
					return nil, err
				}
				bt, err = bt.Project(s.Vars)
				if err != nil {
					return nil, err
				}
				if unionTab == nil {
					unionTab = bt
				} else {
					unionTab.Rows = append(unionTab.Rows, bt.Rows...)
				}
			}
			ub, um := unionTab.FootprintShallow() // branch rows are reused by reference
			if rec != nil {
				r.Account(ub, um, int64(unionTab.Len()), 0)
			}
			rec.Record(obs.OpSample{Depth: depth, Op: "union", RowsOut: unionTab.Len(),
				Label:      fmt.Sprintf("%d branches", len(s.Branches)),
				AllocBytes: ub, Mallocs: um})
			if tab == nil {
				tab = unionTab
			} else {
				r.SetPhase("join")
				jt := startOp(rec, r)
				in := tab.Len() + unionTab.Len()
				build := unionTab.Len()
				var err error
				tab, err = exec.HashJoin(r, tab, unionTab)
				if err != nil {
					return nil, err
				}
				jb, jm := joinFootprint(tab, build)
				jt.record(rec, r, obs.OpSample{Depth: depth, Op: "join", RowsIn: in, RowsOut: tab.Len(),
					AllocBytes: jb, Mallocs: jm})
			}
		case plan.SimilarStep:
			if s.Semi {
				r.SetPhase("filter")
			} else {
				r.SetPhase("scan")
			}
			ot := startOp(rec, r)
			ids, info, err := e.knnHits(s.Sim, r.ID() == 0)
			if err != nil {
				return nil, err
			}
			exec.ChargeKNN(r, info.Visited)
			if s.Semi {
				col := tab.Col(s.Sim.Var)
				if col < 0 {
					return nil, fmt.Errorf("ids: SIMILAR semi-join variable ?%s not in stream", s.Sim.Var)
				}
				in := tab.Len()
				tab = exec.SemiFilterTable(tab, col, knnKeepSet(ids))
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
					RowsIn: in, RowsOut: tab.Len(), Note: knnNote(info, true)})
			} else {
				t := exec.KNNTable(s.Sim.Var, knnPartition(ids, r.ID(), e.Topo.Size()))
				kb, km := t.Footprint()
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
					RowsOut: t.Len(), AllocBytes: kb, Mallocs: km, Note: knnNote(info, false)})
				if tab == nil {
					tab = t
				} else {
					r.SetPhase("join")
					jt := startOp(rec, r)
					in := tab.Len() + t.Len()
					build := t.Len()
					tab, err = exec.HashJoin(r, tab, t)
					if err != nil {
						return nil, err
					}
					jb, jm := joinFootprint(tab, build)
					jt.record(rec, r, obs.OpSample{Depth: depth, Op: "join", RowsIn: in, RowsOut: tab.Len(),
						AllocBytes: jb, Mallocs: jm})
				}
			}
		case plan.ValuesStep:
			r.SetPhase("scan")
			ot := startOp(rec, r)
			rows := exec.ResolveValues(s.Values, e.Graph.Dict)
			t := exec.ValuesTable(r, s.Values.Vars, rows)
			vb, vm := t.Footprint()
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "values", Label: s.Values.String(),
				RowsOut: t.Len(), AllocBytes: vb, Mallocs: vm})
			if tab == nil {
				tab = t
			} else {
				r.SetPhase("join")
				jt := startOp(rec, r)
				in := tab.Len() + t.Len()
				build := t.Len()
				var err error
				tab, err = exec.HashJoin(r, tab, t)
				if err != nil {
					return nil, err
				}
				jb, jm := joinFootprint(tab, build)
				jt.record(rec, r, obs.OpSample{Depth: depth, Op: "join", RowsIn: in, RowsOut: tab.Len(),
					AllocBytes: jb, Mallocs: jm})
			}
		case plan.OptionalStep:
			bt, err := e.runSteps(ctx, r, s.Body, nil, rec, profs, depth+1)
			if err != nil {
				return nil, err
			}
			if tab == nil {
				// A leading OPTIONAL is just its body (nothing on the
				// left to preserve).
				tab = bt
				continue
			}
			r.SetPhase("join")
			jt := startOp(rec, r)
			in := tab.Len() + bt.Len()
			build := bt.Len()
			tab, err = exec.LeftJoin(r, tab, bt)
			if err != nil {
				return nil, err
			}
			jb, jm := joinFootprint(tab, build)
			jt.record(rec, r, obs.OpSample{Depth: depth, Op: "optional", RowsIn: in, RowsOut: tab.Len(),
				AllocBytes: jb, Mallocs: jm})
		}
	}
	return tab, nil
}

// LoadModule loads (cached) an IDscript module and registers its
// functions as dynamic UDFs.
func (e *Engine) LoadModule(name, src string) error {
	_, err := e.Loader.LoadAndRegister(e.Reg, name, src)
	if err != nil {
		e.Logger().Error("module load failed", "module", name, "err", err)
		return err
	}
	e.Logger().Info("module loaded", "module", name, "bytes", len(src))
	return nil
}

// ReloadModule force-reloads a module (the paper's special reload
// function for iterating on UDF code in a running instance).
func (e *Engine) ReloadModule(name, src string) error {
	_, err := e.Loader.ReloadAndRegister(e.Reg, name, src)
	if err != nil {
		e.Logger().Error("module reload failed", "module", name, "err", err)
		return err
	}
	e.Logger().Info("module reloaded", "module", name, "bytes", len(src))
	return nil
}

// MergedProfile aggregates all rank profiles (for reports and the
// profile endpoint).
func (e *Engine) MergedProfile() *udf.Profiler {
	merged := udf.NewProfiler()
	for _, p := range e.profilers {
		merged.Merge(p.Snapshot())
	}
	return merged
}

// WhatIs is the paper's "what-is" convenience: a point lookup of all
// triples about a subject IRI.
func (e *Engine) WhatIs(subjectIRI string) (*Result, error) {
	return e.Query(fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o . }", subjectIRI))
}

// interface check: the engine's dictionary resolver is an expr.Resolver.
var _ expr.Resolver = expr.DictResolver{Dict: (*dict.Dict)(nil)}
