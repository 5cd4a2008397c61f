package exec

import (
	"log/slog"
	"strings"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/sparql"
	"ids/internal/triple"
	"ids/internal/udf"
)

// Columnar physical operators. Each one mirrors its row-engine
// counterpart exactly — same virtual-cost charging, same collective
// sequence (so the modeled communication accounting is identical),
// same SPARQL semantics — but flows dict.ID column vectors through an
// arena instead of boxed per-row value slices.

// ScanBatch matches a triple pattern against the rank's shard and
// returns the local bindings as ID column vectors. Repeated variables
// within the pattern are enforced as equality constraints.
func ScanBatch(r *mpp.Rank, shard *triple.Store, d *dict.Dict, pat sparql.TriplePattern, a *Arena) (*Batch, error) {
	resolve := func(tv sparql.TermOrVar) (dict.ID, bool) {
		if tv.IsVar {
			return dict.None, true
		}
		id, ok := d.Lookup(tv.Term)
		return id, ok
	}
	sid, sOK := resolve(pat.S)
	pid, pOK := resolve(pat.P)
	oid, oOK := resolve(pat.O)

	var vars []string
	addVar := func(name string) int {
		for i, v := range vars {
			if v == name {
				return i
			}
		}
		vars = append(vars, name)
		return len(vars) - 1
	}
	si, pi, oi := -1, -1, -1
	if pat.S.IsVar {
		si = addVar(pat.S.Var)
	}
	if pat.P.IsVar {
		pi = addVar(pat.P.Var)
	}
	if pat.O.IsVar {
		oi = addVar(pat.O.Var)
	}
	out := NewBatch(vars...)
	if !sOK || !pOK || !oOK {
		// A concrete term absent from the dictionary matches nothing.
		return out, nil
	}

	tp := triple.Pattern{S: sid, P: pid, O: oid}
	capacity := shard.Count(tp)
	for c := range out.Cols {
		out.Cols[c] = a.AllocIDs(capacity)
	}
	rows, matched := 0, 0
	shard.Match(tp, func(t triple.Triple) bool {
		matched++
		var vals [3]dict.ID
		var set [3]bool
		ok := true
		bind := func(ci int, id dict.ID) {
			if set[ci] {
				if vals[ci] != id {
					ok = false
				}
				return
			}
			set[ci] = true
			vals[ci] = id
		}
		if si >= 0 {
			bind(si, t.S)
		}
		if ok && pi >= 0 {
			bind(pi, t.P)
		}
		if ok && oi >= 0 {
			bind(oi, t.O)
		}
		if ok {
			for c := range out.Cols {
				out.Cols[c][rows] = vals[c]
			}
			rows++
		}
		return true
	})
	for c := range out.Cols {
		out.Cols[c] = out.Cols[c][:rows]
	}
	out.NRows = rows
	r.Charge(float64(matched) * scanCostPerTriple)
	return out, nil
}

// sharedVarsBatch returns the variables common to both headers.
func sharedVarsBatch(a, b *Batch) []string {
	var out []string
	for _, v := range a.Vars {
		if b.Col(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// partitionBatch routes each row to the rank owning its join key and
// returns the p send chunks (arena-backed, counting-sort layout).
func partitionBatch(a *Arena, b *Batch, keyIdx []int, p int) []batchChunk {
	n := b.NRows
	hv := a.AllocIDs(n) // hash scratch: dict.ID is uint64
	// Counting-sort counters live in one reused int scratch: counts,
	// offsets (p+1) and cursors back to back.
	s := a.intScratch(3*p + 1)
	counts, offs, cur := s[0:p], s[p:2*p+1], s[2*p+1:3*p+1]
	for d := range counts {
		counts[d] = 0
	}
	for i := 0; i < n; i++ {
		h := hashBatchRow(b.Cols, keyIdx, i)
		hv[i] = dict.ID(h)
		counts[h%uint64(p)]++
	}
	offs[0] = 0
	for d := 0; d < p; d++ {
		offs[d+1] = offs[d] + counts[d]
	}
	sel := a.selSlice(n)[0:n]
	copy(cur, offs[:p])
	for i := 0; i < n; i++ {
		d := uint64(hv[i]) % uint64(p)
		sel[cur[d]] = int32(i)
		cur[d]++
	}
	send := a.chunkScratch(p)
	for d := 0; d < p; d++ {
		send[d] = selChunk(a, b, sel[offs[d]:offs[d+1]])
	}
	return send
}

// buildBatch indexes the build side's rows into the arena's reusable
// hash-build structure.
func buildBatch(a *Arena, b *Batch, keyIdx []int) *hashBuild {
	hb := a.buildFor(b.NRows)
	for i := 0; i < b.NRows; i++ {
		h := hashBatchRow(b.Cols, keyIdx, i)
		if head, ok := hb.heads[h]; ok {
			hb.next[i] = head
		} else {
			hb.next[i] = -1
		}
		hb.heads[h] = int32(i)
	}
	return hb
}

// joinOutput gathers the probe/build row pairs into the join's output
// batch. rsel entries of -1 null-extend (LeftJoin).
func joinOutput(a *Arena, outVars []string, lb *Batch, lsel []int32, rb *Batch, rAppend []int, rsel []int32) *Batch {
	nout := len(lsel)
	out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: nout}
	for j := range lb.Vars {
		dst := a.AllocIDs(nout)
		col := lb.Cols[j]
		for k, li := range lsel {
			dst[k] = col[li]
		}
		out.Cols[j] = dst
	}
	for j, rc := range rAppend {
		dst := a.AllocIDs(nout)
		col := rb.Cols[rc]
		for k, ri := range rsel {
			if ri >= 0 {
				dst[k] = col[ri]
			} else {
				dst[k] = dict.None
			}
		}
		out.Cols[len(lb.Vars)+j] = dst
	}
	return out
}

// joinHeader computes the output header and the build-side columns to
// append (those not shared with the probe side).
func joinHeader(left, right *Batch) (outVars []string, rAppend []int) {
	outVars = append([]string{}, left.Vars...)
	for i, v := range right.Vars {
		if left.Col(v) < 0 {
			outVars = append(outVars, v)
			rAppend = append(rAppend, i)
		}
	}
	return outVars, rAppend
}

// crossJoinBatch replicates the right side and produces the cross
// product (leftJoin additionally null-extends when the right side is
// globally empty).
func crossJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena, leftJoin bool) (*Batch, error) {
	outVars, rAppend := joinHeader(left, right)
	allRight, err := mpp.AllGatherSized(r, sliceChunk(a, right, 0, right.NRows), chunkRows)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range allRight {
		total += part.n
	}
	if total == 0 && leftJoin {
		// Null-extend every left row.
		out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: left.NRows}
		copy(out.Cols, left.Cols)
		for j := range rAppend {
			dst := a.AllocIDs(left.NRows)
			for k := range dst {
				dst[k] = dict.None
			}
			out.Cols[len(left.Vars)+j] = dst
		}
		r.Charge(float64(left.NRows) * joinCostPerRow)
		return out, nil
	}
	nout := left.NRows * total
	out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: nout}
	for j := range outVars {
		out.Cols[j] = a.AllocIDs(nout)
	}
	k := 0
	for lr := 0; lr < left.NRows; lr++ {
		for _, part := range allRight {
			for i := 0; i < part.n; i++ {
				for j := range left.Vars {
					out.Cols[j][k] = left.Cols[j][lr]
				}
				for j, rc := range rAppend {
					out.Cols[len(left.Vars)+j][k] = part.cols[rc][i]
				}
				k++
			}
		}
	}
	r.Charge(float64(nout) * joinCostPerRow)
	return out, nil
}

// HashJoinBatch is the columnar distributed hash join: both sides are
// hash-repartitioned across ranks by join key (AllToAll exchanges of
// column chunks), the right side builds, the left side probes, and the
// matching row pairs gather column-wise into the output.
func HashJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	return hashJoinBatch(r, left, right, a, false)
}

// LeftJoinBatch joins right into left with OPTIONAL semantics: left
// rows without a match survive with dict.None in the right columns.
func LeftJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	return hashJoinBatch(r, left, right, a, true)
}

func hashJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena, leftJoin bool) (*Batch, error) {
	shared := sharedVarsBatch(left, right)
	if len(shared) == 0 {
		return crossJoinBatch(r, left, right, a, leftJoin)
	}
	outVars, rAppend := joinHeader(left, right)
	p := r.Size()
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.Col(v)
		rIdx[i] = right.Col(v)
	}
	lRecv, err := mpp.AllToAllSized(r, partitionBatch(a, left, lIdx, p), chunkRows)
	if err != nil {
		return nil, err
	}
	rRecv, err := mpp.AllToAllSized(r, partitionBatch(a, right, rIdx, p), chunkRows)
	if err != nil {
		return nil, err
	}
	lb := concatChunks(a, left.Vars, lRecv)
	rb := concatChunks(a, right.Vars, rRecv)

	hb := buildBatch(a, rb, rIdx)
	lsel := a.selSlice(lb.NRows)
	rsel := a.selSliceB(lb.NRows)
	probes := 0
	for i := 0; i < lb.NRows; i++ {
		probes++
		matched := false
		if head, ok := hb.heads[hashBatchRow(lb.Cols, lIdx, i)]; ok {
			for j := head; j >= 0; j = hb.next[j] {
				if batchKeyEqual(lb.Cols, lIdx, i, rb.Cols, rIdx, int(j)) {
					matched = true
					lsel = append(lsel, int32(i))
					rsel = append(rsel, int32(j))
				}
			}
		}
		if !matched && leftJoin {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, -1)
		}
	}
	out := joinOutput(a, outVars, lb, lsel, rb, rAppend, rsel)
	a.saveSel(lsel)
	a.saveSelB(rsel)
	r.Charge(float64(probes+out.NRows) * joinCostPerRow)
	return out, nil
}

// GatherBatch concentrates all rows of the distributed batch onto
// every rank.
func GatherBatch(r *mpp.Rank, b *Batch, a *Arena) (*Batch, error) {
	parts, err := mpp.AllGatherSized(r, sliceChunk(a, b, 0, b.NRows), chunkRows)
	if err != nil {
		return nil, err
	}
	return concatChunks(a, b.Vars, parts), nil
}

// DistinctLocalBatch removes duplicate rows within this rank's
// partition, preserving first-seen order.
func DistinctLocalBatch(b *Batch, a *Arena) *Batch {
	allIdx := make([]int, len(b.Vars))
	for i := range allIdx {
		allIdx[i] = i
	}
	hb := a.buildFor(b.NRows)
	keep := a.selSlice(b.NRows)
	for i := 0; i < b.NRows; i++ {
		h := hashBatchRow(b.Cols, allIdx, i)
		dup := false
		head, ok := hb.heads[h]
		if ok {
			for j := head; j >= 0; j = hb.next[j] {
				if batchKeyEqual(b.Cols, allIdx, i, b.Cols, allIdx, int(j)) {
					dup = true
					break
				}
			}
		}
		if dup {
			continue
		}
		if ok {
			hb.next[i] = head
		} else {
			hb.next[i] = -1
		}
		hb.heads[h] = int32(i)
		keep = append(keep, int32(i))
	}
	out := gatherBatch(a, b, keep)
	a.saveSel(keep)
	return out
}

// DistinctGlobalBatch removes duplicates across ranks: rows hash-
// partition so duplicates meet on one rank, then deduplicate locally.
func DistinctGlobalBatch(r *mpp.Rank, b *Batch, a *Arena) (*Batch, error) {
	allIdx := make([]int, len(b.Vars))
	for i := range allIdx {
		allIdx[i] = i
	}
	recv, err := mpp.AllToAllSized(r, partitionBatch(a, b, allIdx, r.Size()), chunkRows)
	if err != nil {
		return nil, err
	}
	return DistinctLocalBatch(concatChunks(a, b.Vars, recv), a), nil
}

// ConcatBatches concatenates same-header batches (UNION).
func ConcatBatches(a *Arena, vars []string, parts []*Batch) *Batch {
	chunks := make([]batchChunk, len(parts))
	for i, p := range parts {
		chunks[i] = sliceChunk(a, p, 0, p.NRows)
	}
	return concatChunks(a, vars, chunks)
}

// batchEnv adapts one batch row to expr.Env with lazy ID lookup; the
// column map is built once per operator, never per row.
type batchEnv struct {
	cols map[string]int
	b    *Batch
	row  int
}

func (e *batchEnv) Lookup(name string) (expr.Value, bool) {
	i, ok := e.cols[name]
	if !ok {
		return expr.Null, false
	}
	id := e.b.Cols[i][e.row]
	if id == dict.None {
		return expr.Null, true
	}
	return expr.IDVal(id), true
}

// FilterBatch evaluates e against every row of the batch, keeping rows
// whose effective boolean value is true — semantics, profiling,
// virtual-cost charging and re-balancing all identical to the row
// engine's Filter. It reports the conjunct order as stats.Chain, left
// unformatted: the caller renders it only when a trace will read it.
func FilterBatch(r *mpp.Rank, b *Batch, e expr.Expr, funcs expr.FuncResolver,
	prof *udf.Profiler, res expr.Resolver, opts FilterOpts, a *Arena) (*Batch, FilterStats, error) {

	if opts.SpeedFactor <= 0 {
		opts.SpeedFactor = 1
	}
	chain := expr.Conjuncts(e)
	if opts.Reorder {
		chain = expr.ReorderChain(chain, prof)
	}
	if opts.Logger != nil && opts.Logger.Enabled(opts.logCtx(), slog.LevelDebug) && len(chain) > 1 {
		order := make([]string, len(chain))
		for i, c := range chain {
			order[i] = c.String()
		}
		opts.Logger.DebugContext(opts.logCtx(), "filter conjunct order",
			"rank", r.ID(), "reordered", opts.Reorder, "order", strings.Join(order, " AND "))
	}

	stats := FilterStats{RowsBefore: b.Len()}
	if opts.Rebalance != RebalanceNone {
		secPerSol := 0.0
		for _, c := range chain {
			secPerSol += expr.EstimateConjunct(c, prof).Cost
		}
		rate := 1e9
		if secPerSol > 0 {
			rate = 1 / secPerSol
		}
		vt0 := r.Now()
		var err error
		b, stats.Rebalance, err = RebalanceBatchCounted(r, b, opts.Rebalance, rate, a)
		if err != nil {
			return nil, FilterStats{}, err
		}
		stats.RebalanceSeconds = r.Now() - vt0
		if opts.Logger != nil && (stats.Rebalance.Sent > 0 || stats.Rebalance.Received > 0) {
			opts.Logger.DebugContext(opts.logCtx(), "filter rebalanced solutions",
				"rank", r.ID(), "rows_before", stats.RowsBefore,
				"sent", stats.Rebalance.Sent, "received", stats.Rebalance.Received,
				"vt_seconds", stats.RebalanceSeconds)
		}
	}

	stats.Chain = chain

	cols := make(map[string]int, len(b.Vars))
	for i, v := range b.Vars {
		cols[v] = i
	}
	rec := &callRecorder{inner: funcs}
	env := &batchEnv{cols: cols, b: b}
	ctx := &expr.Ctx{Funcs: rec, Terms: res, Env: env}
	sel := a.selSlice(b.NRows)
	for i := 0; i < b.NRows; i++ {
		stats.Evaluated++
		env.row = i
		keep := true
		for _, conjunct := range chain {
			rec.calls = rec.calls[:0]
			ok, err := expr.EvalBool(conjunct, ctx)
			rejected := err != nil || !ok
			for _, call := range rec.calls {
				cost := call.cost * opts.SpeedFactor
				prof.Record(call.name, cost, rejected)
				r.Charge(cost)
				stats.UDFCost += cost
			}
			if err != nil {
				stats.Errors++
				keep = false
				break
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, int32(i))
			stats.Passed++
		}
	}
	out := gatherBatch(a, b, sel)
	a.saveSel(sel)
	return out, stats, nil
}

// RebalanceBatchCounted redistributes the distributed batch so each
// rank's row count matches the selected policy's target, mirroring
// RebalanceCounted: identical collective sequence, identical targets,
// tail rows shipped zero-copy as column sub-slices.
func RebalanceBatchCounted(r *mpp.Rank, b *Batch, mode RebalanceMode, solPerSec float64, a *Arena) (*Batch, RebalanceInfo, error) {
	var info RebalanceInfo
	if mode == RebalanceNone {
		return b, info, nil
	}
	p := r.Size()
	counts, err := mpp.AllGather(r, b.Len())
	if err != nil {
		return nil, info, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	var targets []int
	if mode == RebalanceCost {
		rates, err := mpp.AllGather(r, solPerSec)
		if err != nil {
			return nil, info, err
		}
		minR, maxR := rates[0], rates[0]
		for _, x := range rates {
			if x < minR {
				minR = x
			}
			if x > maxR {
				maxR = x
			}
		}
		if minR > 0 && maxR/minR <= speedSimilarityBand {
			targets = CountTargets(total, p)
		} else {
			targets = CostTargets(total, rates)
		}
	} else {
		targets = CountTargets(total, p)
	}
	myRow := SendRow(append([]int{}, counts...), targets, r.ID())
	for _, n := range myRow {
		info.Sent += n
	}

	// Ship tail rows as zero-copy column sub-slices.
	send := make([]batchChunk, p)
	cursor := b.NRows
	for dst := 0; dst < p; dst++ {
		n := myRow[dst]
		if n == 0 {
			continue
		}
		send[dst] = sliceChunk(a, b, cursor-n, cursor)
		cursor -= n
	}
	recv, err := mpp.AllToAllSized(r, send, chunkRows)
	if err != nil {
		return nil, info, err
	}
	chunks := make([]batchChunk, 0, p+1)
	chunks = append(chunks, sliceChunk(a, b, 0, cursor))
	for src, part := range recv {
		if src == r.ID() {
			continue
		}
		info.Received += part.n
		chunks = append(chunks, part)
	}
	return concatChunks(a, b.Vars, chunks), info, nil
}
