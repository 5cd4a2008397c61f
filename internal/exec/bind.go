package exec

import (
	"ids/internal/expr"
	"ids/internal/mpp"
)

// BIND runs at the post-gather, late-materialization boundary: computed
// values (floats, strings, booleans) cannot ride in the dictionary-ID
// columnar stream, and per-rank interning would break cross-rank
// exchange determinism. After Gather every rank holds the full solution
// table, so whichever rank finishes the query (rank 0 alone on the
// engine's columnar query path, every rank in RunPlan and the row
// engine) sees every row. Both engines share these row operators
// verbatim and agree byte-for-byte.

// BindSpec is one BIND(expr AS ?var) computed column.
type BindSpec struct {
	Var  string
	Expr expr.Expr
}

// ApplyBinds appends one computed column per spec, in order, to the
// gathered table. An evaluation error binds null for that row — the
// W3C rule that an erroring BIND leaves the variable unbound while the
// solution survives. UDF calls are charged to the rank clock.
func ApplyBinds(r *mpp.Rank, t *Table, binds []BindSpec, funcs expr.FuncResolver, res expr.Resolver) *Table {
	for _, b := range binds {
		cols := t.colIndex()
		rec := &callRecorder{inner: funcs}
		ctx := &expr.Ctx{Funcs: rec, Terms: res}
		out := NewTable(append(append(make([]string, 0, len(t.Vars)+1), t.Vars...), b.Var)...)
		out.Rows = make([][]expr.Value, 0, len(t.Rows))
		for _, row := range t.Rows {
			rec.calls = rec.calls[:0]
			ctx.Env = rowEnv{cols: cols, row: row}
			v, err := expr.Eval(b.Expr, ctx)
			for _, call := range rec.calls {
				r.Charge(call.cost)
			}
			if err != nil {
				v = expr.Null
			}
			nr := make([]expr.Value, 0, len(row)+1)
			nr = append(append(nr, row...), v)
			out.Rows = append(out.Rows, nr)
		}
		t = out
	}
	return t
}

// ApplyPostFilters evaluates FILTER expressions that reference bind
// aliases, dropping rows whose effective boolean value errors or is
// false (standard FILTER semantics, applied on the gathered table
// right after ApplyBinds).
func ApplyPostFilters(r *mpp.Rank, t *Table, filters []expr.Expr, funcs expr.FuncResolver, res expr.Resolver) *Table {
	if len(filters) == 0 {
		return t
	}
	cols := t.colIndex()
	rec := &callRecorder{inner: funcs}
	ctx := &expr.Ctx{Funcs: rec, Terms: res}
	out := NewTable(t.Vars...)
	for _, row := range t.Rows {
		ctx.Env = rowEnv{cols: cols, row: row}
		keep := true
		for _, f := range filters {
			rec.calls = rec.calls[:0]
			ok, err := expr.EvalBool(f, ctx)
			for _, call := range rec.calls {
				r.Charge(call.cost)
			}
			if err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}
