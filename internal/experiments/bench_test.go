package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFixture() BenchReport {
	return BenchReport{
		Date: "2026-08-05", Scale: "ci", GoVersion: "go1.24", GOMAXPROCS: 1,
		Load: []LoadPoint{
			{Concurrency: 1, Queries: 8, WallSec: 8, QPS: 1.0, P50Ms: 1000, P99Ms: 1500},
			{Concurrency: 4, Queries: 8, WallSec: 4, QPS: 2.0, P50Ms: 1800, P99Ms: 2500},
		},
		Alloc: BenchAlloc{
			TotalQueries: 16, AllocBytesTotal: 320 << 20,
			AllocBytesPerQuery: 20 << 20, MallocsTotal: 1_000_000,
			MallocsPerQuery: 62_500, GCCycles: 12,
		},
		Vector: &VectorBenchPoint{
			Vectors: 100_000, Dim: 32, K: 10, M: 16,
			EfConstruction: 100, EfSearch: 64, Queries: 200,
			BruteP50Ms: 2.0, HNSWP50Ms: 0.05, Speedup: 40, Recall: 0.98,
			VisitedMean: 900,
		},
	}
}

func fpFixture() []FingerprintPoint {
	return []FingerprintPoint{
		{Fingerprint: "aaaa", Count: 100, AllocShare: 0.50},
		{Fingerprint: "bbbb", Count: 80, AllocShare: 0.30},
		{Fingerprint: "cccc", Count: 60, AllocShare: 0.15},
		{Fingerprint: "dddd", Count: 40, AllocShare: 0.05},
	}
}

// TestCompareBenchFingerprintGate: a shape entering the new run's
// top-3 by alloc share is flagged; reshuffles within the same top-3
// set, or baselines without fingerprint tables, are not.
func TestCompareBenchFingerprintGate(t *testing.T) {
	th := DefaultCompareThresholds()

	base, nw := benchFixture(), benchFixture()
	base.Fingerprints, nw.Fingerprints = fpFixture(), fpFixture()
	if regs := CompareBench(&base, &nw, th); len(regs) != 0 {
		t.Fatalf("identical fingerprint tables flagged: %v", regs)
	}

	// dddd overtakes cccc in alloc share: new entrant in top-3.
	nw.Fingerprints[3].AllocShare = 0.25
	nw.Fingerprints[2].AllocShare = 0.02
	regs := CompareBench(&base, &nw, th)
	if len(regs) != 1 || regs[0].Metric != "fingerprint_new_in_top3_alloc" || regs[0].Fingerprint != "dddd" {
		t.Fatalf("expected dddd flagged as new top-3 entrant, got %v", regs)
	}

	// A reshuffle of the existing top-3 is not drift.
	nw.Fingerprints = fpFixture()
	nw.Fingerprints[0].AllocShare, nw.Fingerprints[2].AllocShare = 0.15, 0.50
	if regs := CompareBench(&base, &nw, th); len(regs) != 0 {
		t.Fatalf("top-3 reshuffle flagged: %v", regs)
	}

	// Pre-insights baseline: gate must stay disengaged.
	base.Fingerprints = nil
	nw.Fingerprints = []FingerprintPoint{{Fingerprint: "eeee", AllocShare: 0.9}}
	if regs := CompareBench(&base, &nw, th); len(regs) != 0 {
		t.Fatalf("fingerprint gate engaged without a baseline table: %v", regs)
	}
}

func TestCompareBenchNoRegression(t *testing.T) {
	base := benchFixture()
	nw := benchFixture()
	// Mild noise well inside the default thresholds.
	nw.Load[0].QPS *= 0.8
	nw.Load[0].P50Ms *= 1.3
	nw.Alloc.AllocBytesPerQuery *= 1.1
	if regs := CompareBench(&base, &nw, DefaultCompareThresholds()); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %v", regs)
	}
}

// TestComparableRefusesMismatchedSettings: the gate pairs load points
// only between runs at the same scale and GOMAXPROCS; anything else is
// refused rather than compared.
func TestComparableRefusesMismatchedSettings(t *testing.T) {
	base := benchFixture()
	same := benchFixture()
	if err := Comparable(&base, &same); err != nil {
		t.Fatalf("identical settings refused: %v", err)
	}
	procs := benchFixture()
	procs.GOMAXPROCS = 2
	if err := Comparable(&base, &procs); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS 1 vs 2 not refused: %v", err)
	}
	scale := benchFixture()
	scale.Scale = "paper"
	if err := Comparable(&base, &scale); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("scale ci vs paper not refused: %v", err)
	}
}

func TestCompareBenchImprovementPasses(t *testing.T) {
	base := benchFixture()
	nw := benchFixture()
	nw.Load[0].QPS *= 3
	nw.Load[0].P50Ms /= 2
	nw.Alloc.AllocBytesPerQuery /= 4
	nw.Alloc.MallocsPerQuery /= 4
	if regs := CompareBench(&base, &nw, DefaultCompareThresholds()); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareBenchSyntheticRegressions(t *testing.T) {
	th := DefaultCompareThresholds()
	cases := []struct {
		name   string
		mutate func(*BenchReport)
		metric string
	}{
		{"qps collapse", func(r *BenchReport) { r.Load[1].QPS = 0.5 }, "qps"},
		{"p50 blowup", func(r *BenchReport) { r.Load[0].P50Ms = 2500 }, "p50_ms"},
		{"p99 blowup", func(r *BenchReport) { r.Load[0].P99Ms = 6000 }, "p99_ms"},
		{"alloc growth", func(r *BenchReport) { r.Alloc.AllocBytesPerQuery *= 1.5 }, "alloc_bytes_per_query"},
		{"mallocs growth", func(r *BenchReport) { r.Alloc.MallocsPerQuery *= 1.5 }, "mallocs_per_query"},
		{"dropped load point", func(r *BenchReport) { r.Load = r.Load[:1] }, "load_point_missing"},
		{"vector speedup collapse", func(r *BenchReport) { r.Vector.Speedup = 5 }, "vector_speedup"},
		{"vector recall below floor", func(r *BenchReport) { r.Vector.Recall = 0.90 }, "vector_recall"},
		{"dropped vector point", func(r *BenchReport) { r.Vector = nil }, "vector_point_missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := benchFixture()
			nw := benchFixture()
			tc.mutate(&nw)
			regs := CompareBench(&base, &nw, th)
			if len(regs) == 0 {
				t.Fatalf("regression not detected")
			}
			found := false
			for _, r := range regs {
				if r.Metric == tc.metric {
					found = true
					if s := r.String(); !strings.Contains(s, tc.metric) {
						t.Errorf("String() %q does not name metric %q", s, tc.metric)
					}
				}
			}
			if !found {
				t.Fatalf("expected metric %q among regressions %v", tc.metric, regs)
			}
		})
	}
}

func TestCompareBenchCustomThresholds(t *testing.T) {
	base := benchFixture()
	nw := benchFixture()
	nw.Alloc.AllocBytesPerQuery *= 1.1 // +10%
	th := DefaultCompareThresholds()
	th.MaxAllocGrowth = 0.05
	regs := CompareBench(&base, &nw, th)
	if len(regs) != 1 || regs[0].Metric != "alloc_bytes_per_query" {
		t.Fatalf("tightened threshold should flag +10%% alloc growth, got %v", regs)
	}
}

func TestCompareBenchZeroBaseline(t *testing.T) {
	// A baseline with zero metrics (e.g. errors zeroed QPS) must not
	// divide by zero or spuriously flag the new run.
	base := benchFixture()
	base.Load[0].QPS = 0
	base.Load[0].P50Ms = 0
	base.Alloc.AllocBytesPerQuery = 0
	nw := benchFixture()
	if regs := CompareBench(&base, &nw, DefaultCompareThresholds()); len(regs) != 0 {
		t.Fatalf("zero baseline produced regressions: %v", regs)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	rep := benchFixture()
	if err := WriteBenchReport(path, &rep); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBenchReport(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Date != rep.Date || got.Scale != rep.Scale || len(got.Load) != 2 ||
		got.Load[1].QPS != rep.Load[1].QPS ||
		got.Alloc.MallocsPerQuery != rep.Alloc.MallocsPerQuery ||
		got.Vector == nil || *got.Vector != *rep.Vector {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// A pre-vector baseline (Vector absent) must not trip the vector gate
// even when the new run carries a point.
func TestCompareBenchVectorAbsentBaseline(t *testing.T) {
	base := benchFixture()
	base.Vector = nil
	nw := benchFixture()
	if regs := CompareBench(&base, &nw, DefaultCompareThresholds()); len(regs) != 0 {
		t.Fatalf("absent-baseline vector point produced regressions: %v", regs)
	}
}

// TestVectorBenchSmall runs the real measurement at toy scale: the
// point must take the hnsw path and clear the recall floor (speedup is
// not asserted — a 2k corpus is too small for a stable timing ratio).
func TestVectorBenchSmall(t *testing.T) {
	opts := DefaultVectorBenchOptions()
	opts.Vectors, opts.Queries = 2000, 30
	pt, err := VectorBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Recall < 0.95 {
		t.Fatalf("recall@%d = %.4f, want >= 0.95", pt.K, pt.Recall)
	}
	if pt.VisitedMean <= 0 || pt.BruteP50Ms <= 0 || pt.HNSWP50Ms <= 0 {
		t.Fatalf("degenerate point: %+v", pt)
	}
	if pt.Vectors != 2000 || pt.Dim != 32 || pt.BuildSec <= 0 {
		t.Fatalf("point shape: %+v", pt)
	}
}

func TestReadBenchReportCommittedBaselineFormat(t *testing.T) {
	// The committed BENCH_*.json files must keep parsing: pin the JSON
	// field names the on-disk format uses.
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	raw := `{
	  "date": "2026-08-05", "scale": "ci", "go_version": "go1.24.0", "gomaxprocs": 1,
	  "load": [{"concurrency": 1, "queries": 8, "errors": 0, "wall_sec": 8.0,
	            "qps": 1.0, "p50_ms": 1240, "p99_ms": 1900}],
	  "alloc": {"total_queries": 8, "alloc_bytes_total": 167943980,
	            "alloc_bytes_per_query": 20992997.5, "mallocs_total": 509056,
	            "mallocs_per_query": 63632, "gc_cycles": 9}
	}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadBenchReport(path)
	if err != nil {
		t.Fatalf("read committed-format baseline: %v", err)
	}
	if rep.GOMAXPROCS != 1 || rep.Load[0].P50Ms != 1240 ||
		rep.Alloc.AllocBytesPerQuery != 20992997.5 || rep.Alloc.GCCycles != 9 {
		t.Fatalf("fields did not decode: %+v", rep)
	}
}
