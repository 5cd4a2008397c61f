package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Bench baselines and the regression gate. ids-bench -bench-out writes
// a BenchReport (committed as BENCH_<date>.json); ids-bench -compare
// diffs a fresh run against the committed baseline and CI fails the
// build when throughput, latency, or per-query allocation regressed
// past the thresholds. Timing metrics get generous limits (CI machines
// are noisy, and the committed baseline may come from different
// hardware); allocation metrics are deterministic enough for tighter
// ones.

// BenchReport is the machine-readable baseline written by -bench-out.
// Field names are part of the on-disk format — committed baselines
// from earlier dates must keep parsing.
type BenchReport struct {
	Date       string      `json:"date"`
	Scale      string      `json:"scale"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Load       []LoadPoint `json:"load"`
	Alloc      BenchAlloc  `json:"alloc"`
	// Vector, when present, is the HNSW-vs-brute access-path point
	// (ids-bench -vectors N). Optional so pre-vector baselines keep
	// parsing; the gate only engages when the baseline carries one.
	Vector *VectorBenchPoint `json:"vector,omitempty"`
	// Fingerprints, when present, is the workload observatory's view of
	// the load run: the top query fingerprints with their share of
	// attributed allocation. Optional so pre-insights baselines keep
	// parsing; the top-3-by-alloc-share gate only engages when the
	// baseline carries rows.
	Fingerprints []FingerprintPoint `json:"fingerprints,omitempty"`
}

// FingerprintPoint is one query shape's row in the baseline: its
// workload fingerprint, observed count, fraction of attributed
// allocation, and rolling p99 latency over the load run.
type FingerprintPoint struct {
	Fingerprint string  `json:"fingerprint"`
	Count       uint64  `json:"count"`
	AllocShare  float64 `json:"alloc_share"`
	LatencyP99  float64 `json:"latency_p99_seconds"`
	Query       string  `json:"query,omitempty"`
}

// BenchAlloc is the allocation delta across the load run.
type BenchAlloc struct {
	TotalQueries       int     `json:"total_queries"`
	AllocBytesTotal    uint64  `json:"alloc_bytes_total"`
	AllocBytesPerQuery float64 `json:"alloc_bytes_per_query"`
	MallocsTotal       uint64  `json:"mallocs_total"`
	MallocsPerQuery    float64 `json:"mallocs_per_query"`
	GCCycles           uint32  `json:"gc_cycles"`
}

// WriteBenchReport writes rep as indented JSON to path.
func WriteBenchReport(path string, rep *BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchReport parses a baseline JSON file.
func ReadBenchReport(path string) (*BenchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	return &rep, nil
}

// CompareThresholds are the maximum tolerated relative regressions
// (fractions: 0.5 = 50%). Timing limits are deliberately loose —
// CI timing is noisy and baselines may predate hardware changes —
// while allocation limits are tight because per-query allocation is
// near-deterministic for a fixed workload.
type CompareThresholds struct {
	MaxQPSDrop       float64 // fraction of baseline QPS that may be lost
	MaxP50Growth     float64 // fractional p50 latency growth
	MaxP99Growth     float64 // fractional p99 latency growth
	MaxAllocGrowth   float64 // fractional alloc-bytes-per-query growth
	MaxMallocsGrowth float64 // fractional mallocs-per-query growth
	// Vector-point limits. Speedup is a timing ratio measured on one
	// host, so its drop limit is loose; recall is seeded-deterministic
	// and gets an absolute floor instead of a relative one.
	MaxVecSpeedupDrop float64 // fractional HNSW-over-brute speedup drop
	MinVecRecall      float64 // absolute recall@k floor
}

// DefaultCompareThresholds: QPS may halve, p50 may double, p99 may
// triple, allocs/mallocs per query may grow 30%; the vector speedup
// may halve but must stay measured, and recall may never dip below
// 0.95 regardless of the baseline.
func DefaultCompareThresholds() CompareThresholds {
	return CompareThresholds{
		MaxQPSDrop:        0.50,
		MaxP50Growth:      1.00,
		MaxP99Growth:      2.00,
		MaxAllocGrowth:    0.30,
		MaxMallocsGrowth:  0.30,
		MaxVecSpeedupDrop: 0.50,
		MinVecRecall:      0.95,
	}
}

// Regression is one threshold breach found by CompareBench.
type Regression struct {
	Metric      string  `json:"metric"`
	Concurrency int     `json:"concurrency,omitempty"` // 0 for run-wide metrics
	Fingerprint string  `json:"fingerprint,omitempty"` // set for fingerprint-gate breaches
	Base        float64 `json:"base"`
	New         float64 `json:"new"`
	Change      float64 `json:"change"` // signed fraction (+0.4 = 40% worse)
	Limit       float64 `json:"limit"`
}

func (r Regression) String() string {
	scope := ""
	if r.Concurrency > 0 {
		scope = fmt.Sprintf(" @ concurrency %d", r.Concurrency)
	}
	if r.Fingerprint != "" {
		scope = fmt.Sprintf(" [fp %s]", r.Fingerprint)
	}
	return fmt.Sprintf("%s%s: %.4g -> %.4g (%+.0f%%, limit %+.0f%%)",
		r.Metric, scope, r.Base, r.New, 100*r.Change, 100*r.Limit)
}

// relGrowth returns (nw-base)/base, or 0 when base is not positive
// (nothing meaningful to compare against).
func relGrowth(base, nw float64) float64 {
	if base <= 0 {
		return 0
	}
	return (nw - base) / base
}

// Comparable reports whether two baselines ran under the same settings:
// the same scale and the same GOMAXPROCS. Throughput, latency and
// allocation all move with both, so a gate across different settings
// would measure the settings, not the code.
func Comparable(base, nw *BenchReport) error {
	if base.Scale != nw.Scale {
		return fmt.Errorf("experiments: scale differs: baseline %q, new %q", base.Scale, nw.Scale)
	}
	if base.GOMAXPROCS != nw.GOMAXPROCS {
		return fmt.Errorf("experiments: GOMAXPROCS differs: baseline %d, new %d", base.GOMAXPROCS, nw.GOMAXPROCS)
	}
	return nil
}

// CompareBench diffs nw against base and returns every threshold
// breach. Load points pair by concurrency level; a baseline level
// missing from the new run is itself reported (the gate must not pass
// because coverage silently shrank). An empty slice means no
// regression.
func CompareBench(base, nw *BenchReport, th CompareThresholds) []Regression {
	var regs []Regression
	newByConc := make(map[int]LoadPoint, len(nw.Load))
	for _, p := range nw.Load {
		newByConc[p.Concurrency] = p
	}
	for _, bp := range base.Load {
		np, ok := newByConc[bp.Concurrency]
		if !ok {
			regs = append(regs, Regression{
				Metric: "load_point_missing", Concurrency: bp.Concurrency,
				Base: float64(bp.Queries), New: 0, Change: -1, Limit: 0,
			})
			continue
		}
		if drop := -relGrowth(bp.QPS, np.QPS); drop > th.MaxQPSDrop {
			regs = append(regs, Regression{
				Metric: "qps", Concurrency: bp.Concurrency,
				Base: bp.QPS, New: np.QPS, Change: -drop, Limit: -th.MaxQPSDrop,
			})
		}
		if g := relGrowth(bp.P50Ms, np.P50Ms); g > th.MaxP50Growth {
			regs = append(regs, Regression{
				Metric: "p50_ms", Concurrency: bp.Concurrency,
				Base: bp.P50Ms, New: np.P50Ms, Change: g, Limit: th.MaxP50Growth,
			})
		}
		if g := relGrowth(bp.P99Ms, np.P99Ms); g > th.MaxP99Growth {
			regs = append(regs, Regression{
				Metric: "p99_ms", Concurrency: bp.Concurrency,
				Base: bp.P99Ms, New: np.P99Ms, Change: g, Limit: th.MaxP99Growth,
			})
		}
	}
	if g := relGrowth(base.Alloc.AllocBytesPerQuery, nw.Alloc.AllocBytesPerQuery); g > th.MaxAllocGrowth {
		regs = append(regs, Regression{
			Metric: "alloc_bytes_per_query",
			Base:   base.Alloc.AllocBytesPerQuery, New: nw.Alloc.AllocBytesPerQuery,
			Change: g, Limit: th.MaxAllocGrowth,
		})
	}
	if g := relGrowth(base.Alloc.MallocsPerQuery, nw.Alloc.MallocsPerQuery); g > th.MaxMallocsGrowth {
		regs = append(regs, Regression{
			Metric: "mallocs_per_query",
			Base:   base.Alloc.MallocsPerQuery, New: nw.Alloc.MallocsPerQuery,
			Change: g, Limit: th.MaxMallocsGrowth,
		})
	}
	if base.Vector != nil {
		switch {
		case nw.Vector == nil:
			// Same rule as a dropped load point: coverage must not
			// silently shrink once the baseline has a vector point.
			regs = append(regs, Regression{
				Metric: "vector_point_missing",
				Base:   float64(base.Vector.Vectors), New: 0, Change: -1, Limit: 0,
			})
		default:
			if drop := -relGrowth(base.Vector.Speedup, nw.Vector.Speedup); drop > th.MaxVecSpeedupDrop {
				regs = append(regs, Regression{
					Metric: "vector_speedup",
					Base:   base.Vector.Speedup, New: nw.Vector.Speedup,
					Change: -drop, Limit: -th.MaxVecSpeedupDrop,
				})
			}
			if nw.Vector.Recall < th.MinVecRecall {
				regs = append(regs, Regression{
					Metric: "vector_recall",
					Base:   base.Vector.Recall, New: nw.Vector.Recall,
					Change: relGrowth(base.Vector.Recall, nw.Vector.Recall),
					Limit:  th.MinVecRecall,
				})
			}
		}
	}
	// Workload-shape gate: a fingerprint entering the new run's top-3
	// by alloc share that the baseline's top-3 does not contain means
	// the allocation profile shifted to a new query shape — exactly the
	// drift a fixed-metric gate misses. Engages only when both reports
	// carry fingerprint tables.
	if len(base.Fingerprints) > 0 && len(nw.Fingerprints) > 0 {
		baseTop := map[string]bool{}
		for _, f := range topByAllocShare(base.Fingerprints, 3) {
			baseTop[f.Fingerprint] = true
		}
		for _, f := range topByAllocShare(nw.Fingerprints, 3) {
			if !baseTop[f.Fingerprint] {
				regs = append(regs, Regression{
					Metric: "fingerprint_new_in_top3_alloc", Fingerprint: f.Fingerprint,
					Base: 0, New: f.AllocShare, Change: f.AllocShare, Limit: 0,
				})
			}
		}
	}
	return regs
}

// topByAllocShare returns the n highest-alloc-share fingerprints
// (ties broken by fingerprint for determinism).
func topByAllocShare(fps []FingerprintPoint, n int) []FingerprintPoint {
	s := append([]FingerprintPoint(nil), fps...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].AllocShare != s[j].AllocShare {
			return s[i].AllocShare > s[j].AllocShare
		}
		return s[i].Fingerprint < s[j].Fingerprint
	})
	if len(s) > n {
		s = s[:n]
	}
	return s
}
