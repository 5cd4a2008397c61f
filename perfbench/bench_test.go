package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50.5, true},
		{0.9, 90.1, true}, // exactly 10 samples beyond
		{0.91, 0, false},
		{0.99, 0, false}, // p99 needs 1000 samples
		{0, 0, false},
		{1, 0, false},
	} {
		got, err := percentile(s, tc.q)
		if tc.ok != (err == nil) {
			t.Fatalf("q=%g: err=%v, want ok=%v", tc.q, err, tc.ok)
		}
		if !tc.ok {
			if !errors.Is(err, errFewSamples) {
				t.Fatalf("q=%g: err %v does not wrap errFewSamples", tc.q, err)
			}
			continue
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("q=%g: got %g, want %g", tc.q, got, tc.want)
		}
	}
	if _, err := percentile(make([]float64, 1000), 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
}

func TestDistTailReportsPercentileAndCount(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(200 - i)
	}
	d := newDist(s)
	if d.n() != 200 {
		t.Fatalf("n = %d", d.n())
	}
	v, q := d.tail(0.99)
	if q != 0.95 {
		t.Fatalf("tail of 200 samples used p%g, want p95 (10 beyond)", q*100)
	}
	if want, _ := percentile(d.samples, 0.95); v != want {
		t.Fatalf("tail value %g, want %g", v, want)
	}
	if _, q := newDist(make([]float64, 5000)).tail(0.99); q != 0.99 {
		t.Fatalf("tail of 5000 samples used p%g, want p99", q*100)
	}
	if d.p50() != 100.5 {
		t.Fatalf("p50 = %g", d.p50())
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "exec.scan_cpu_us", "a", "9lives", "x-y.z_1", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "KiB", "ratio"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	if err := checkDefs(); err != nil {
		t.Fatal(err)
	}
	saved := perLayer
	defer func() { perLayer = saved }()
	perLayer = append(append([]metricDef{}, saved...), metricDef{"setup_s", "s"})
	if checkDefs() == nil {
		t.Fatal("checkDefs accepted a repeated name")
	}
	perLayer = append(append([]metricDef{}, saved...), metricDef{"bad name", "s"})
	if checkDefs() == nil {
		t.Fatal("checkDefs accepted an invalid name")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("json metric %s [%s], code %s [%s]", name, unit, def.name, def.unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better = %q", name, better)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: json %d/%d, code %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// fakeUniverse stands in for the dataset in generator tests.
func fakeUniverse() universe {
	var u universe
	for i := 0; i < 40; i++ {
		u.tierProteins = append(u.tierProteins, fmt.Sprintf("http://p/T%d", i))
		u.bgProteins = append(u.bgProteins, fmt.Sprintf("http://p/B%d", i))
		u.compounds = append(u.compounds, fmt.Sprintf("http://c/C%d", i))
	}
	return u
}

// render is an op's byte form for the determinism tests.
func (o op) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s pool=%d batch=%d ", o.kind, o.shape, o.pool, o.batch)
	b.WriteString(o.text)
	if o.key != "" {
		fmt.Fprintf(&b, " %s %v", o.key, o.vec)
	}
	return b.String()
}

// opSequence renders the first n ops of every client of a workload.
func opSequence(workload string, seed int64, n int) string {
	u := fakeUniverse()
	var pool []pooledText
	switch workload {
	case "funnel":
		for i := 0; i < 5; i++ {
			pool = append(pool, pooledText{shape: "funnel", text: fmt.Sprint("funnel query ", i)})
		}
	case "curate-write":
		pool = append([]pooledText{{shape: "funnel", text: "funnel query"}}, explorePool(seed, u, 64, true)...)
	default:
		pool = explorePool(seed, u, 64, false)
	}
	streams, _ := newStreams(workload, seed, pool, vecCenters(seed))
	var b strings.Builder
	for c, s := range streams {
		for i := 0; i < n; i++ {
			o := s.next()
			if o.pool >= 0 {
				o.text = pool[o.pool].text
			}
			fmt.Fprintf(&b, "%d %s\n", c, o.render())
		}
	}
	return b.String()
}

func TestOpSequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := opSequence(w.name, 1, 300), opSequence(w.name, 1, 300)
		if a != b {
			t.Errorf("%s: the same seed gave different operation sequences", w.name)
		}
		if c := opSequence(w.name, 2, 300); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same operation sequence", w.name)
		}
	}
}

func TestCuratorHoldsGraphInBand(t *testing.T) {
	cur := newCuratorStream(3, vecCenters(3))
	live := map[int]bool{}
	inserted := map[int]bool{}
	for i := 0; i < 500; i++ {
		o := cur.next()
		switch o.shape {
		case "insert":
			live[o.batch], inserted[o.batch] = true, true
		case "delete":
			if !inserted[o.batch] || !live[o.batch] {
				t.Fatalf("op %d deletes batch %d that is not live", i, o.batch)
			}
			delete(live, o.batch)
		case "lookup":
			if !live[o.batch] || o.want.n != 4 {
				t.Fatalf("op %d looks up batch %d (live %v) expecting %d rows", i, o.batch, live[o.batch], o.want.n)
			}
		}
		if len(live) > liveBatches+1 {
			t.Fatalf("op %d: %d live batches", i, len(live))
		}
	}
}

func TestAnswerIsOrderIndependent(t *testing.T) {
	a := stringsAnswer([][]string{{"x", "y"}, {"z", "w"}})
	b := stringsAnswer([][]string{{"z", "w"}, {"x", "y"}})
	if a != b {
		t.Fatal("row order changed the answer")
	}
	for _, other := range [][][]string{
		{{"x", "y"}},
		{{"x", "y"}, {"z", "w"}, {"x", "y"}},
		{{"xy", ""}, {"z", "w"}},
		{{"y", "x"}, {"z", "w"}},
	} {
		if stringsAnswer(other) == a {
			t.Errorf("%v has the same answer as the reference", other)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	req := tr.newReq()
	root := tr.add(req, 0, "root", at(0), at(10))
	tr.add(req, root, "child", at(1), at(3))
	tr.add(req, root, "child", at(2), at(5))  // overlaps the first
	tr.add(req, root, "child", at(8), at(12)) // runs past the parent
	rows := map[string]layerRow{}
	for _, r := range tr.selfTimes() {
		rows[r.name] = r
	}
	if got := rows["root"].own; got != 4*time.Millisecond {
		t.Fatalf("root self time %v, want 4ms", got)
	}
	if got := rows["child"]; got.count != 3 || got.own != 9*time.Millisecond {
		t.Fatalf("child row %+v, want 3 spans, 9ms self", got)
	}
}

func TestPromValues(t *testing.T) {
	text := "# HELP x y\nids_wal_bytes_total 1234\nids_admission_wait_seconds_sum 0.5\n" +
		"ids_x_bucket{le=\"0.1\"} 3 # {trace_id=\"a\"} 0.05\nbad line here\n"
	v := promValues(text)
	if v["ids_wal_bytes_total"] != 1234 || v["ids_admission_wait_seconds_sum"] != 0.5 || v[`ids_x_bucket{le="0.1"}`] != 3 {
		t.Fatalf("parsed %v", v)
	}
}

// TestRunPrintsEveryMetric runs every workload briefly in both modes and
// checks the last output line: one JSON object with every declared
// metric, all answers correct.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut strings.Builder
			args := []string{"--workload", w.name, "--seed", "5", "--seconds", "0.3", "--trace", trace, "--workdir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %+v", w.name, trace, res)
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or wrong unit: %+v", w.name, trace, d.name, v)
				}
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}
