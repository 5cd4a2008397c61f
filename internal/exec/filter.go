package exec

import (
	"context"
	"log/slog"
	"strings"

	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/udf"
)

// FilterOpts controls the FILTER operator's optimizations.
type FilterOpts struct {
	// Reorder enables profiling-driven conjunct reordering (§2.4.3).
	Reorder bool
	// Rebalance selects solution re-balancing before evaluation
	// (§2.4.2).
	Rebalance RebalanceMode
	// SpeedFactor models this rank's relative hardware speed: UDF
	// costs are multiplied by it (1.0 = nominal; 2.0 = half speed).
	// The paper attributes rank throughput differences to "node
	// hardware and differences in the sub-graph within each rank's
	// data shard"; this knob injects the hardware part in experiments.
	SpeedFactor float64
	// Logger, when non-nil, narrates the optimizer decisions this
	// FILTER took (conjunct order chosen, re-balance traffic) at Debug.
	// Callers typically set it on one rank only to avoid N identical
	// lines per query.
	Logger *slog.Logger
	// Ctx is the request context passed to Logger calls, so the obs
	// handler stamps qid and traceparent onto operator-level lines
	// without the caller binding attributes by hand. Nil falls back to
	// context.Background().
	Ctx context.Context
}

// logCtx returns the context FILTER log lines carry.
func (o FilterOpts) logCtx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// FilterStats reports what one rank's FILTER evaluation did.
type FilterStats struct {
	Evaluated int // rows evaluated (after re-balancing)
	Passed    int // rows that survived
	Errors    int // rows dropped due to evaluation errors
	UDFCost   float64
	// Order is the conjunct evaluation order used by this rank
	// (stringified), exposing per-rank independent reordering. Set by
	// the row Filter only.
	Order []string
	// Chain is the same order as expressions, set by FilterBatch, which
	// leaves formatting to callers that trace.
	Chain []expr.Expr
	// RowsBefore is the local row count before §2.4.2 re-balancing.
	RowsBefore int
	// Rebalance reports the rows this rank shipped/received during
	// re-balancing (zero when disabled).
	Rebalance RebalanceInfo
	// RebalanceSeconds is the virtual time the re-balancing step took
	// on this rank, collectives included.
	RebalanceSeconds float64
}

// callRecorder wraps a FuncResolver, capturing each UDF call's name
// and cost so the FILTER loop can attribute profile records and
// rejections per conjunct.
type callRecorder struct {
	inner expr.FuncResolver
	calls []callRec
}

type callRec struct {
	name string
	cost float64
}

func (cr *callRecorder) CallUDF(name string, args []expr.Value) (expr.Value, float64, error) {
	v, cost, err := cr.inner.CallUDF(name, args)
	cr.calls = append(cr.calls, callRec{name, cost})
	return v, cost, err
}

// Filter evaluates e against every local row, keeping rows whose
// effective boolean value is true. UDF calls are profiled per rank
// (execution count, total time, rejections) and their virtual cost is
// charged to the rank clock. Rows whose evaluation errors are dropped,
// following SPARQL semantics. Ranks reorder and re-balance
// independently; the caller synchronizes afterwards.
func Filter(r *mpp.Rank, t *Table, e expr.Expr, funcs expr.FuncResolver,
	prof *udf.Profiler, res expr.Resolver, opts FilterOpts) (*Table, FilterStats, error) {

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

	// Cost-aware re-balancing needs this rank's throughput estimate:
	// seconds per solution across the (reordered) chain, from the
	// profile.
	stats := FilterStats{RowsBefore: t.Len()}
	if opts.Rebalance != RebalanceNone {
		secPerSol := 0.0
		for _, c := range chain {
			secPerSol += expr.EstimateConjunct(c, prof).Cost
		}
		rate := 1e9 // effectively free when nothing is profiled
		if secPerSol > 0 {
			rate = 1 / secPerSol
		}
		vt0 := r.Now()
		var err error
		t, stats.Rebalance, err = RebalanceCounted(r, t, opts.Rebalance, rate)
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

	stats.Order = make([]string, len(chain))
	for i, c := range chain {
		stats.Order[i] = c.String()
	}

	rec := &callRecorder{inner: funcs}
	ctx := &expr.Ctx{Funcs: rec, Terms: res}
	cols := t.colIndex()
	out := NewTable(t.Vars...)
	for _, row := range t.Rows {
		stats.Evaluated++
		ctx.Env = rowEnv{cols: cols, row: row}
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
			out.Rows = append(out.Rows, row)
			stats.Passed++
		}
	}
	return out, stats, nil
}
