package ids

import (
	"maps"
	"math"
	"slices"
	"testing"

	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/plan"
	"ids/internal/sparql"
)

// The engine's query path gathers on every rank and finishes (materialize,
// BIND, post-filters, aggregate, order, slice, project) on rank 0 only;
// RunPlan finishes on every rank. These tests pin what that split must
// and must not change.

// traceOp returns the first trace op named op (and, when note is set,
// carrying that note).
func traceOp(t *testing.T, tr *obs.QueryTrace, op, note string) obs.OpTrace {
	t.Helper()
	for _, o := range tr.Ops {
		if o.Op == op && (note == "" || o.Note == note) {
			return o
		}
	}
	t.Fatalf("trace has no %q op (note %q): %+v", op, note, tr.Ops)
	return obs.OpTrace{}
}

// TestResultMaterializedOnce: a traced 16-rank query accounts the
// materialized result once, not once per rank, keeps the two-ledger
// invariant, and RunPlan still hands every rank the full table.
func TestResultMaterializedOnce(t *testing.T) {
	const ranks = 16
	e := newEngine(t, ranks)
	q := `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`
	// Warm the arena set first: with recycled arenas gather allocates
	// no fresh scratch, so its ledger is the materialized table alone.
	for i := 0; i < 3; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	g := traceOp(t, res.Trace, "gather", "")
	if len(g.Ranks) != ranks {
		t.Fatalf("gather op has %d per-rank entries, want %d", len(g.Ranks), ranks)
	}
	// Every rank still holds the gathered rows...
	for _, ro := range g.Ranks {
		if ro.RowsOut != 5 {
			t.Fatalf("rank %d gathered %d rows, want 5", ro.Rank, ro.RowsOut)
		}
	}
	// ...but only one materializes them: ?s and ?n, 5 rows.
	one, oneM := (&exec.Batch{Vars: []string{"s", "n"}, NRows: 5}).MaterializeFootprint()
	if g.AllocBytes != one || g.Mallocs != oneM {
		t.Fatalf("gather accounted %d B / %d mallocs, want one materialized table = %d B / %d mallocs",
			g.AllocBytes, g.Mallocs, one, oneM)
	}
	if g.Ranks[0].AllocBytes != one {
		t.Fatalf("rank 0 gather accounted %d B, want %d", g.Ranks[0].AllocBytes, one)
	}

	ru := res.Trace.Resources
	if ru.OpAllocBytes <= 0 || ru.OpMallocs <= 0 {
		t.Fatalf("op-accounted = %d B / %d mallocs, want > 0", ru.OpAllocBytes, ru.OpMallocs)
	}
	if ru.OpAllocBytes > ru.AllocBytes || ru.OpMallocs > ru.Mallocs {
		t.Fatalf("op-accounted %d B / %d mallocs exceed physical %d B / %d mallocs",
			ru.OpAllocBytes, ru.OpMallocs, ru.AllocBytes, ru.Mallocs)
	}

	tabs, _ := runPlanEverywhere(t, e, q)
	want := e.Strings(res)
	for id, tab := range tabs {
		got := e.Strings(&Result{Vars: tab.Vars, Rows: tab.Rows})
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("RunPlan rank %d = %v, want %v", id, got, want)
		}
	}
}

// TestFinishVirtualClockMatchesRowEngine: finishing on rank 0 alone
// leaves the virtual clock where every-rank finishing put it. The row
// engine still finishes everywhere, so both engines must report the
// same makespan and per-phase bottlenecks for a query whose finish does
// costed work (a UDF BIND, a post-bind FILTER, GROUP BY and ORDER BY);
// only the finish phase's sum over ranks drops.
// The query has a single scan and no join: the engines hash-partition
// join inputs differently (value hash versus dict-ID hash), so a join
// ships different rows off-rank and charges different exchange time in
// each engine, independently of where the plan finishes. For a join
// query the same check runs against the columnar engine itself, via
// RunPlan's every-rank finish. The trace keeps the finish ops, with
// rank 0's row counts.
func TestFinishVirtualClockMatchesRowEngine(t *testing.T) {
	const ranks = 4
	rowE, colE := enginePair(t, ranks)
	for _, e := range []*Engine{rowE, colE} {
		err := e.Reg.RegisterWithCost("weight", func(args []expr.Value) (expr.Value, error) {
			return expr.Float(2 * args[0].Num), nil
		}, func([]expr.Value) float64 { return 1e-3 })
		if err != nil {
			t.Fatal(err)
		}
	}
	q := `SELECT ?hi (COUNT(?s) AS ?n) WHERE { ?s <http://x/score> ?v .
		BIND(weight(?v) AS ?w) BIND(?w > 100 AS ?hi) FILTER(?w > 40) } GROUP BY ?hi ORDER BY ?hi`
	rowRes, err := rowE.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := colE.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if rowRes.Report.Makespan != colRes.Report.Makespan {
		t.Fatalf("makespan: row %v, columnar %v", rowRes.Report.Makespan, colRes.Report.Makespan)
	}
	if !maps.Equal(rowRes.Report.Phases, colRes.Report.Phases) {
		t.Fatalf("phases: row %v, columnar %v", rowRes.Report.Phases, colRes.Report.Phases)
	}
	// The finish's UDF time is paid once on the columnar path, once per
	// rank on the row path.
	finish := colRes.Report.Phases["finish"]
	if finish <= 0 {
		t.Fatalf("no finish-phase time: %v", colRes.Report.Phases)
	}
	if got := colRes.Report.PhaseSum["finish"]; got != finish {
		t.Fatalf("columnar finish phase sum %v, want one rank's %v", got, finish)
	}
	if got, want := rowRes.Report.PhaseSum["finish"], ranks*finish; math.Abs(got-want) > 1e-12 {
		t.Fatalf("row finish phase sum %v, want %d ranks × %v", got, ranks, finish)
	}

	gathered := traceOp(t, colRes.Trace, "gather", "").Ranks[0].RowsOut
	if gathered == 0 {
		t.Fatal("query gathered no rows")
	}
	for _, want := range []struct{ op, note string }{
		{"bind", ""}, {"filter", "post-bind"}, {"aggregate", ""},
	} {
		col := traceOp(t, colRes.Trace, want.op, want.note)
		row := traceOp(t, rowRes.Trace, want.op, want.note)
		if col.Ranks[0].RowsIn == 0 || col.RowsIn != col.Ranks[0].RowsIn || col.RowsOut != col.Ranks[0].RowsOut {
			t.Fatalf("%s op rows %d→%d, want rank 0's %d→%d",
				want.op, col.RowsIn, col.RowsOut, col.Ranks[0].RowsIn, col.Ranks[0].RowsOut)
		}
		// The row engine finishes the same table on every rank.
		if row.RowsIn != ranks*col.RowsIn || row.RowsOut != ranks*col.RowsOut {
			t.Fatalf("%s op: row engine %d→%d, columnar %d→%d on %d ranks",
				want.op, row.RowsIn, row.RowsOut, col.RowsIn, col.RowsOut, ranks)
		}
	}
	if bind := traceOp(t, colRes.Trace, "bind", ""); bind.RowsIn != gathered {
		t.Fatalf("bind op read %d rows, want the %d gathered", bind.RowsIn, gathered)
	}
	if len(colRes.Rows) != len(rowRes.Rows) || len(colRes.Rows) == 0 {
		t.Fatalf("rows: row engine %d, columnar %d", len(rowRes.Rows), len(colRes.Rows))
	}

	joinQ := `SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v .
		BIND(weight(?v) AS ?w) FILTER(?w > 40) } GROUP BY ?t ORDER BY ?t`
	res, err := colE.Query(joinQ)
	if err != nil {
		t.Fatal(err)
	}
	_, everyRank := runPlanEverywhere(t, colE, joinQ)
	if res.Report.Makespan != everyRank.Makespan || !maps.Equal(res.Report.Phases, everyRank.Phases) {
		t.Fatalf("join query: rank-0 finish makespan %v phases %v, every-rank finish makespan %v phases %v",
			res.Report.Makespan, res.Report.Phases, everyRank.Makespan, everyRank.Phases)
	}
}

// runPlanEverywhere runs q through RunPlan, which finishes on every
// rank, and returns each rank's table and the world's virtual-clock
// report.
func runPlanEverywhere(t *testing.T, e *Engine, q string) ([]*exec.Table, *mpp.Report) {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(parsed, e.stats.Load())
	if err != nil {
		t.Fatal(err)
	}
	tabs := make([]*exec.Table, e.Topo.Size())
	rep, err := mpp.Run(e.Topo, e.Net, e.Seed, func(r *mpp.Rank) error {
		tab, err := e.RunPlan(r, pl)
		tabs[r.ID()] = tab
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tabs, rep
}
