// Package mpp provides a simulated massively-parallel-processing (MPP)
// rank runtime. It stands in for the MPI layer the Cray Graph Engine
// runs on: a fixed set of ranks (goroutines) laid out over nodes,
// communicating through collectives (barrier, allgather, alltoall,
// allreduce, broadcast).
//
// Each rank carries a virtual clock. Cheap kernels run for real and
// charge measured wall time; expensive kernels (docking, large model
// inference) charge calibrated virtual seconds instead of sleeping.
// Collectives synchronize the virtual clocks to the maximum across
// ranks plus an alpha-beta network cost, so the final makespan is
// max-over-ranks of accumulated time — the same quantity the paper's
// wall-clock measurements capture, replayable in milliseconds.
package mpp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// ErrPanic marks a rank-body panic converted into an error by RunCtx's
// recovery. Callers (crash classifiers, the conformance taxonomy)
// detect it with errors.Is rather than matching message text.
var ErrPanic = errors.New("mpp: panic")

// Topology describes the simulated machine: how many nodes and how
// many ranks are placed on each node. It mirrors the paper's
// "N nodes with 32 ranks per node" experiment descriptions.
type Topology struct {
	Nodes        int
	RanksPerNode int
}

// Size returns the total number of ranks in the world.
func (t Topology) Size() int { return t.Nodes * t.RanksPerNode }

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.RanksPerNode <= 0 {
		return fmt.Errorf("mpp: invalid topology %+v", t)
	}
	return nil
}

// NetModel is an alpha-beta cost model for the interconnect. A
// collective over n elements charges Alpha*ceil(log2(P)) latency plus
// bytes/Bandwidth transfer time, where bytes = n*BytesPerElem.
// Defaults approximate a Slingshot-class fabric.
type NetModel struct {
	Alpha        float64 // per-hop latency in seconds
	Bandwidth    float64 // bytes per second per NIC
	BytesPerElem int     // assumed wire size of one exchanged element
}

// DefaultNet returns a Slingshot-like network model (2 us latency,
// 25 GB/s per node, 16-byte elements).
func DefaultNet() NetModel {
	return NetModel{Alpha: 2e-6, Bandwidth: 25e9, BytesPerElem: 16}
}

// hopCost returns the latency component of a collective across p ranks.
func (n NetModel) hopCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	return n.Alpha * math.Ceil(math.Log2(float64(p)))
}

// xferCost returns the transfer-time component for elems elements.
func (n NetModel) xferCost(elems int) float64 {
	if elems <= 0 || n.Bandwidth <= 0 {
		return 0
	}
	return float64(elems*n.BytesPerElem) / n.Bandwidth
}

// World is one launched MPP job: a topology, a network model and the
// shared state backing the collectives.
type World struct {
	topo Topology
	net  NetModel
	seed int64

	bar   *barrier
	slots []any   // allgather/bcast exchange slots, one per rank
	mat   [][]any // alltoall exchange matrix, mat[src][dst]
	ranks []*Rank
}

// Rank is the per-rank handle passed to the job body. All methods are
// safe to call only from the rank's own goroutine, except none are
// shared anyway: each goroutine owns exactly one Rank.
type Rank struct {
	w     *World
	id    int
	ctx   context.Context
	vt    float64 // virtual clock, seconds
	phase string
	acc   map[string]float64 // phase -> accumulated virtual seconds
	rng   *rand.Rand         // built on first RNG call
	err   error
	comm  CommStats     // rank-local collective accounting
	res   ResourceStats // rank-local resource accounting (see Account)
}

// ID returns the rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Context returns the job's launch context (Background for Run
// without ctx). It carries cross-cutting request values — the query's
// qid and traceparent — into rank-side operators, standing in for the
// metadata an MPI launcher would ship alongside the job.
func (r *Rank) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.w.topo.Size() }

// Node returns the index of the node hosting this rank.
func (r *Rank) Node() int { return r.id / r.w.topo.RanksPerNode }

// Nodes returns the number of nodes in the world.
func (r *Rank) Nodes() int { return r.w.topo.Nodes }

// Now returns the rank's current virtual time in seconds.
func (r *Rank) Now() float64 { return r.vt }

// RNG returns the rank's deterministic random source, seeded from the
// world seed and the rank id. The source is built on first use: most
// jobs never draw from it, and seeding one costs a few KiB per rank.
func (r *Rank) RNG() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.w.seed ^ int64(uint64(r.id+1)*0x9e3779b97f4a7c15>>1)))
	}
	return r.rng
}

// SetPhase switches the accounting phase; subsequent Charge calls are
// attributed to it. Phase names become rows in the report breakdown
// (scan, join, merge, filter, dock, ...).
func (r *Rank) SetPhase(name string) { r.phase = name }

// Phase returns the current accounting phase name.
func (r *Rank) Phase() string { return r.phase }

// Charge advances the rank's virtual clock by d seconds, attributing
// the time to the current phase. Negative charges are ignored.
func (r *Rank) Charge(d float64) {
	if d <= 0 {
		return
	}
	r.vt += d
	if r.acc == nil {
		r.acc = make(map[string]float64)
	}
	r.acc[r.phase] += d
}

// ChargeComm charges the network cost of sending elems elements
// point-to-point (one hop plus transfer time).
func (r *Rank) ChargeComm(elems int) {
	cost := r.w.net.Alpha + r.w.net.xferCost(elems)
	r.comm.Bytes += int64(elems * r.w.net.BytesPerElem)
	r.comm.Seconds += cost
	r.Charge(cost)
}

// chargeXfer charges a collective's data-transfer component and
// accounts the traffic (the alpha/latency part is charged by the
// collective's barriers).
func (r *Rank) chargeXfer(elems int) {
	cost := r.w.net.xferCost(elems)
	r.comm.Bytes += int64(elems * r.w.net.BytesPerElem)
	r.comm.Seconds += cost
	r.Charge(cost)
}

// CommStats accounts the collective traffic of a run: how many
// collective synchronizations happened, the payload bytes exchanged,
// and the modeled alpha-beta network seconds.
type CommStats struct {
	Collectives int64   `json:"collectives"`
	Bytes       int64   `json:"bytes"`
	Seconds     float64 `json:"seconds"`
}

// ResourceStats accounts a rank's materialized work: heap bytes and
// objects the rank's operators accounted (see exec footprints), rows
// produced, and measured CPU-proxy seconds. Zero unless the job body
// calls Account (the engine does so for traced queries).
type ResourceStats struct {
	AllocBytes int64   `json:"alloc_bytes"`
	Mallocs    int64   `json:"mallocs"`
	Rows       int64   `json:"rows"`
	CPUSeconds float64 `json:"cpu_seconds"`
}

// Account adds one operator's accounted footprint to the rank's
// running resource tally. Like all Rank methods it must only be called
// from the rank's own goroutine.
func (r *Rank) Account(allocBytes, mallocs, rows int64, cpuSeconds float64) {
	r.res.AllocBytes += allocBytes
	r.res.Mallocs += mallocs
	r.res.Rows += rows
	r.res.CPUSeconds += cpuSeconds
}

// Resources returns the rank's accumulated resource tally.
func (r *Rank) Resources() ResourceStats { return r.res }

// PhaseTotal returns the virtual seconds accumulated in the named
// phase so far on this rank.
func (r *Rank) PhaseTotal(name string) float64 { return r.acc[name] }

// Report summarizes a finished run. Makespan is the max over ranks of
// final virtual time — the simulated end-to-end wall clock. Phases
// holds, per phase, the max over ranks of time accumulated in that
// phase (the bottleneck view used for the paper's breakdown figures);
// PhaseSum holds the sum over ranks (the utilization view).
type Report struct {
	Topology Topology
	Makespan float64
	Phases   map[string]float64
	PhaseSum map[string]float64
	// Comm aggregates collective traffic: Collectives is the max over
	// ranks (the per-rank synchronization count — symmetric in normal
	// runs), Bytes the sum over ranks, Seconds the max over ranks.
	Comm CommStats
	// Resources sums the per-rank resource tallies; RankResources keeps
	// the per-rank breakdown (index = rank id) so skew in accounted
	// memory is visible alongside virtual-time skew.
	Resources     ResourceStats
	RankResources []ResourceStats
}

// PhaseMax returns the bottleneck time of the named phase, or 0.
func (rep *Report) PhaseMax(name string) float64 { return rep.Phases[name] }

// String renders the report as a small table. Phases print in sorted
// name order so the output is deterministic across runs.
func (rep *Report) String() string {
	s := fmt.Sprintf("nodes=%d ranks=%d makespan=%.3fs",
		rep.Topology.Nodes, rep.Topology.Size(), rep.Makespan)
	names := make([]string, 0, len(rep.Phases))
	for name := range rep.Phases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s += fmt.Sprintf(" %s=%.3fs", name, rep.Phases[name])
	}
	return s
}

// Run launches one goroutine per rank executing body and waits for all
// of them. It returns the timing report and the first error any rank
// produced. On error the collectives abort, releasing blocked ranks.
func Run(topo Topology, net NetModel, seed int64, body func(r *Rank) error) (*Report, error) {
	return RunCtx(context.Background(), topo, net, seed, body)
}

// RunCtx is Run with a launch context: every rank's Context() returns
// ctx, so request-scoped values (qid, traceparent) propagate into
// rank goroutines without widening the body signature.
func RunCtx(ctx context.Context, topo Topology, net NetModel, seed int64, body func(r *Rank) error) (*Report, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	p := topo.Size()
	w := &World{
		topo:  topo,
		net:   net,
		seed:  seed,
		bar:   newBarrier(p),
		slots: make([]any, p),
		mat:   make([][]any, p),
		ranks: make([]*Rank, p),
	}
	for i := range w.mat {
		w.mat[i] = make([]any, p)
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		r := &Rank{
			w:     w,
			id:    i,
			ctx:   ctx,
			acc:   make(map[string]float64),
			phase: "main",
		}
		w.ranks[i] = r
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err := fmt.Errorf("%w: rank %d panicked: %v", ErrPanic, r.id, rec)
					r.err = err
					w.bar.abort(err)
				}
			}()
			if err := body(r); err != nil {
				r.err = err
				w.bar.abort(err)
			}
		}(r)
	}
	wg.Wait()

	rep := &Report{
		Topology: topo,
		Phases:   make(map[string]float64),
		PhaseSum: make(map[string]float64),
	}
	var firstErr error
	for _, r := range w.ranks {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.vt > rep.Makespan {
			rep.Makespan = r.vt
		}
		for name, v := range r.acc {
			if v > rep.Phases[name] {
				rep.Phases[name] = v
			}
			rep.PhaseSum[name] += v
		}
		if r.comm.Collectives > rep.Comm.Collectives {
			rep.Comm.Collectives = r.comm.Collectives
		}
		rep.Comm.Bytes += r.comm.Bytes
		if r.comm.Seconds > rep.Comm.Seconds {
			rep.Comm.Seconds = r.comm.Seconds
		}
		rep.Resources.AllocBytes += r.res.AllocBytes
		rep.Resources.Mallocs += r.res.Mallocs
		rep.Resources.Rows += r.res.Rows
		rep.Resources.CPUSeconds += r.res.CPUSeconds
		rep.RankResources = append(rep.RankResources, r.res)
	}
	if firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}

// Barrier blocks until every rank reaches it, then synchronizes all
// virtual clocks to the maximum plus the barrier's network latency.
func (r *Rank) Barrier() error {
	max, err := r.w.bar.await(r.vt)
	if err != nil {
		return err
	}
	r.comm.Collectives++
	r.comm.Seconds += r.w.net.hopCost(r.Size())
	d := max + r.w.net.hopCost(r.Size()) - r.vt
	r.Charge(d)
	return nil
}
