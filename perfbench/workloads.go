package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/ids"
)

// The workloads. All three run on the ci-scale NCNPR graph as a closed
// loop of two clients — as many as the reference machine has cores —
// because the system's callers (notebooks, ids-cli, the NCNPR
// workflow) each wait for a reply before sending the next request.
var workloads = []workloadDef{
	{
		name: "funnel",
		// The paper's headline query: scan → join → cost-ordered UDF
		// FILTERs, in process, tracing off, 16 ranks. FILTER/UDF memo
		// hits, scan/join/rebalance, gather/materialize and the mpp
		// exchange do the work; no HTTP, tracing or writes.
		why:   "the paper's NCNPR funnel in process at 16 ranks: UDF memo hits, scan/join, gather and exchange dominate",
		setup: setupFunnel,
	},
	{
		name: "explore-http",
		// Short exploratory queries through the HTTP server, where the
		// fixed per-query cost dominates: parse, plan, rank-world
		// spin-up, tracing, decoding, JSON, admission and loopback.
		// SIMILAR exercises HNSW; UDF work is small, so a FILTER-side
		// gain that shows on funnel should not move this workload.
		why:   "short seeded queries over loopback HTTP with tracing on: fixed per-query cost dominates, little UDF work",
		setup: func(seed int64) (*bench, error) { return setupServer(seed, false) },
	},
	{
		name: "curate-write",
		// The same server with fsync-always durability while a curator
		// inserts and deletes proteins and upserts fingerprints: WAL
		// append+fsync, a planner-stats rebuild per update under the
		// writer lock, HNSW inserts, background checkpoints, readers
		// waiting behind writers and SW memo misses. A read-path gain
		// that slows writes shows here.
		why:   "a curator writes through the WAL with fsync while a scientist reads: write path, lock waits, memo misses",
		setup: func(seed int64) (*bench, error) { return setupServer(seed, true) },
	},
}

type workloadDef struct {
	name  string
	why   string
	setup func(seed int64) (*bench, error)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// bench is one set-up workload, ready to run.
type bench struct {
	sys     *system
	pool    []pooledText
	streams []stream
	clients []*client
	// curator bookkeeping (curate-write): acknowledged writes per
	// batch, written only by the curator's client goroutine.
	cur *curatorStream
	ack map[int]*batchAck
	// probeTexts are the workload's own query texts for the layer
	// probes of the traced run.
	probeTexts []string
}

type batchAck struct {
	inserted, deleted bool
	upserted          []string
}

// client is one closed-loop connection.
type client struct {
	http      *ids.Client // nil for the in-process funnel
	respBytes atomic.Int64
}

// countingTransport counts response body bytes, so the benchmark reads
// response sizes without touching the client code.
type countingTransport struct {
	base  http.RoundTripper
	bytes *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func newHTTPClient(addr string) *client {
	c := &client{}
	c.http = ids.NewClient("http://" + addr)
	c.http.HTTP = &http.Client{
		Timeout:   120 * time.Second,
		Transport: countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}, bytes: &c.respBytes},
	}
	return c
}

func (b *bench) close() error {
	for _, c := range b.clients {
		if c.http != nil {
			c.http.HTTP.CloseIdleConnections()
		}
	}
	return b.sys.close()
}

func setupFunnel(seed int64) (*bench, error) {
	sys, err := newFunnelSystem()
	if err != nil {
		return nil, err
	}
	// The paper's Table 2 SW thresholds, plus the worst-first FILTER
	// order at 0.4. Each returns exactly the ground-truth candidates
	// above its threshold (1129/121/57/56).
	queries := []struct {
		shape string
		text  string
		th    float64
	}{
		{"funnel0.99", sys.wf.InnerQuery(0.99), 0.99},
		{"funnel0.5", sys.wf.InnerQuery(0.5), 0.5},
		{"funnel0.4", sys.wf.InnerQuery(0.4), 0.4},
		{"funnel0.2", sys.wf.InnerQuery(0.2), 0.2},
		{"funnel0.4-worst", sys.wf.InnerQueryWorstFirst(0.4), 0.4},
	}
	b := &bench{sys: sys}
	for _, q := range queries {
		res, err := sys.eng.Query(q.text)
		if err != nil {
			return nil, fmt.Errorf("funnel reference %s: %w", q.shape, err)
		}
		if n := sys.ds.CandidatesAbove(q.th); len(res.Rows) != n {
			return nil, fmt.Errorf("funnel reference %s: %d rows, want %d candidates", q.shape, len(res.Rows), n)
		}
		b.pool = append(b.pool, pooledText{shape: q.shape, text: q.text, want: valuesAnswer(res.Rows)})
		b.probeTexts = append(b.probeTexts, q.text)
	}
	b.clients = []*client{{}, {}}
	b.streams, _ = newStreams("funnel", seed, b.pool, nil)
	return b, nil
}

// newStreams makes the two clients' operation streams of a workload
// over its text pool; curate-write also returns its curator.
func newStreams(workload string, seed int64, pool []pooledText, centers [][]float32) ([]stream, *curatorStream) {
	rng := func(c int64) *rand.Rand { return rand.New(rand.NewSource(seed*31 + c)) }
	if workload == "curate-write" {
		cur := newCuratorStream(seed, centers)
		return []stream{&scientistStream{explore: newCycleStream(rng(0), pool, indexRange(1, len(pool)))}, cur}, cur
	}
	return []stream{newCycleStream(rng(0), pool, indexRange(0, len(pool))), newCycleStream(rng(1), pool, indexRange(0, len(pool)))}, nil
}

// explorePoolSize is the number of distinct exploratory texts a run
// draws from.
const explorePoolSize = 192

func setupServer(seed int64, durable bool) (*bench, error) {
	sys, err := newServerSystem(seed, durable)
	if err != nil {
		return nil, err
	}
	b := &bench{sys: sys}
	if durable {
		// Pool entry 0 is the funnel the scientist interleaves.
		b.pool = append(b.pool, pooledText{shape: "funnel0.4", text: sys.wf.InnerQuery(0.4)})
	}
	b.pool = append(b.pool, explorePool(seed, sys.u, explorePoolSize, durable)...)
	for i := range b.pool {
		res, err := sys.eng.Query(b.pool[i].text)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("reference %s %q: %w", b.pool[i].shape, b.pool[i].text, err)
		}
		b.pool[i].want = stringsAnswer(sys.eng.Strings(res))
		if i < 64 {
			b.probeTexts = append(b.probeTexts, b.pool[i].text)
		}
	}
	if durable {
		if n := sys.ds.CandidatesAbove(0.4); b.pool[0].want.n != n {
			b.close()
			return nil, fmt.Errorf("funnel reference: %d rows, want %d", b.pool[0].want.n, n)
		}
	}
	for c := 0; c < 2; c++ {
		b.clients = append(b.clients, newHTTPClient(sys.inst.Addr))
	}
	if durable {
		b.streams, b.cur = newStreams("curate-write", seed, b.pool, sys.centers)
		b.ack = map[int]*batchAck{}
	} else {
		b.streams, _ = newStreams("explore-http", seed, b.pool, sys.centers)
	}
	return b, nil
}

// opResult is the outcome of one operation.
type opResult struct {
	kind     opKind
	ok       bool
	err      error
	latency  time.Duration
	overhead time.Duration // client round trip minus server wall time
	hasOver  bool
}

// do runs one op on client c and checks its answer. tr, when set,
// records the op's spans.
func (b *bench) do(ctx context.Context, c *client, o op, tr *tracer) opResult {
	r := opResult{kind: o.kind}
	req := tr.newReq()
	start := time.Now()
	want := o.want
	if o.pool >= 0 {
		want = b.pool[o.pool].want
	}
	switch {
	case c.http == nil:
		res, err := b.query(ctx, o.text, tr != nil)
		r.latency = time.Since(start)
		if err != nil {
			r.err = err
			break
		}
		if tr != nil {
			root := tr.add(req, 0, "engine.query", start, start.Add(r.latency))
			tr.attachTrace(req, root, start, res.Trace)
		}
		if got := valuesAnswer(res.Rows); got != want {
			r.err = fmt.Errorf("%s: %d rows, want %d (answer differs)", o.shape, got.n, want.n)
		}
	case o.kind == opQuery:
		resp, err := c.http.Query(o.text)
		r.latency = time.Since(start)
		if err != nil {
			r.err = err
			break
		}
		wall := time.Duration(resp.WallTime * float64(time.Second))
		r.overhead, r.hasOver = r.latency-wall, true
		if tr != nil {
			root := tr.add(req, 0, "http.query", start, start.Add(r.latency))
			s := start.Add((r.latency - wall) / 2)
			tr.add(req, root, "server.query", s, s.Add(wall))
		}
		if got := stringsAnswer(resp.Rows); got != want {
			r.err = fmt.Errorf("%s: %d rows, want %d (answer differs): %s", o.shape, got.n, want.n, o.text)
		}
	case o.kind == opUpdate:
		res, err := c.http.Update(o.text)
		r.latency = time.Since(start)
		tr.add(req, 0, "http."+o.shape, start, start.Add(r.latency))
		if err != nil {
			r.err = err
			break
		}
		if res.Applied != res.Total {
			r.err = fmt.Errorf("%s batch %d: applied %d of %d triples", o.shape, o.batch, res.Applied, res.Total)
			break
		}
		a := b.batchAck(o.batch)
		if o.shape == "insert" {
			a.inserted = true
		} else {
			a.deleted = true
		}
	default:
		res, err := c.http.VectorUpsert("fp", o.key, o.vec)
		r.latency = time.Since(start)
		tr.add(req, 0, "http.upsert", start, start.Add(r.latency))
		if err != nil {
			r.err = err
			break
		}
		if res.Applied != 1 {
			r.err = fmt.Errorf("upsert %s: applied %d", o.key, res.Applied)
			break
		}
		a := b.batchAck(o.batch)
		a.upserted = append(a.upserted, o.key)
	}
	r.ok = r.err == nil
	return r
}

func (b *bench) batchAck(id int) *batchAck {
	a := b.ack[id]
	if a == nil {
		a = &batchAck{}
		b.ack[id] = a
	}
	return a
}

// query runs an in-process query, traced when the run is.
func (b *bench) query(ctx context.Context, text string, traced bool) (*ids.Result, error) {
	if traced {
		return b.sys.eng.QueryTracedCtx(ctx, text)
	}
	return b.sys.eng.QueryCtx(ctx, text)
}

// loop runs every client's stream in a closed loop: until n ops each
// when n > 0, else until the deadline. It returns each client's results.
func (b *bench) loop(n int, deadline time.Time, tr *tracer) [][]opResult {
	out := make([][]opResult, len(b.clients))
	var wg sync.WaitGroup
	for i := range b.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for k := 0; ; k++ {
				if n > 0 && k >= n || n <= 0 && !time.Now().Before(deadline) {
					return
				}
				out[i] = append(out[i], b.do(ctx, b.clients[i], b.streams[i].next(), tr))
			}
		}(i)
	}
	wg.Wait()
	return out
}

// verifyRecovery checks the relaunched instance against every
// acknowledged write: each batch's triples are all present while it is
// live and all gone once its deletion was acknowledged, and each
// upserted vector is the acknowledged one. It returns the checks made
// and the failures.
func (b *bench) verifyRecovery(inst *ids.Instance) (checks, failed int, firstErr error) {
	note := func(err error) {
		checks++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	// Every triple the instance holds, digested by subject: one scan
	// instead of a query per batch.
	res, err := inst.Engine.Query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }")
	if err != nil {
		note(err)
		return
	}
	bySubject := map[string]answer{}
	for _, r := range inst.Engine.Strings(res) {
		a := bySubject[r[0]]
		a.add(r)
		bySubject[r[0]] = a
	}
	// The expected store: the seeded vectors plus every acknowledged
	// upsert, in acknowledgement order.
	mirror, err := seedVectors(b.sys.u, b.sys.seed, b.sys.centers)
	if err != nil {
		note(err)
		return
	}
	var upserted []string
	for _, bt := range b.cur.batches {
		a := b.ack[bt.id]
		if a == nil {
			continue
		}
		for _, k := range a.upserted {
			for i := range bt.keys {
				if bt.keys[i] == k {
					if _, err := mirror.Upsert(k, bt.vecs[i]); err != nil {
						note(err)
						return
					}
				}
			}
			upserted = append(upserted, k)
		}
		if !a.inserted {
			continue
		}
		want := batchAnswer(bt)
		if a.deleted {
			want = answer{}
		}
		var got answer
		for _, s := range append(append([]string{}, bt.proteins...), bt.keys...) {
			d := bySubject[iriTerm(s)]
			got.sum += d.sum
			got.n += d.n
		}
		if got != want {
			note(fmt.Errorf("recovery: batch %d (deleted %v) has %d triples, want %d", bt.id, a.deleted, got.n, want.n))
			continue
		}
		note(nil)
	}
	// A recovered vector is the acknowledged one when its exact distances
	// to a few anchor vectors equal those in the expected store; one
	// scan per anchor covers every key.
	n := mirror.Len()
	bad := map[string]error{}
	for _, anchor := range vecAnchors {
		q, err := mirror.Get(anchor)
		if err != nil {
			note(err)
			return
		}
		want, err := mirror.Search(q, n+1)
		if err != nil {
			note(err)
			return
		}
		got, err := inst.Engine.VectorSearch("fp", anchor, n+1)
		if err != nil {
			note(err)
			return
		}
		if len(got) != len(want) {
			note(fmt.Errorf("recovery: scan from %s: %d vectors, want %d", anchor, len(got), len(want)))
		}
		gotScore := map[string]float64{}
		for _, h := range got {
			gotScore[h.Key] = h.Score
		}
		for _, h := range want {
			g, ok := gotScore[h.Key]
			if !ok || math.Abs(g-h.Score) > 1e-9*(1+math.Abs(h.Score)) {
				bad[h.Key] = fmt.Errorf("recovery: vector %s: distance to %s is %g (present %v), want %g", h.Key, anchor, g, ok, h.Score)
			}
		}
	}
	for _, k := range upserted {
		note(bad[k])
	}
	return checks, failed, firstErr
}

// vecAnchors are seeded store keys whose exact distances to every other
// vector pin the recovered vectors.
var vecAnchors = []string{decoyKey(0), decoyKey(1), decoyKey(2)}
