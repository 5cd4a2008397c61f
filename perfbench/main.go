// Command perfbench is the repository benchmark. It sets up one
// workload from a seed, runs it to steady state as a closed loop of two
// clients, checks every answer, and prints every metric by name with
// its unit; the last line of standard output is one JSON object.
//
//	go run . --workload funnel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// the benchmark's spans off. With --trace 1 a separate run records
// spans around every call into the program, probes each layer, prints
// the per-layer table with each layer's self time, and writes the spans
// as JSON lines under --workdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"ids/internal/ids"
)

// procStart stamps process start: the first set-up is timed from here.
var procStart = time.Now()

// workDir holds the benchmark's scratch files (WAL directories, spans).
var workDir string

// setupReps is how many times a timed run sets the workload up; setup_s
// is the median, and the last set-up is the one measured.
const setupReps = 3

// Warm-up operations per client before timing starts: enough to fill
// the UDF memo, the arenas and the dictionary caches.
var warmOps = map[string]int{"funnel": 30, "explore-http": explorePoolSize, "curate-write": 60}

// metricDef is one declared metric: BENCHMARK.json lists the same names
// and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"ok_rate", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"mallocs_per_op", "count"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the layer metrics of the traced run, reported with
// --trace 1 on every workload. The table prints more: metrics that
// exist only on some workloads (HTTP serving, WAL, curator updates, the
// less common operators), operator rows the engine records without
// CPU or allocation (rebalance, union), and the GC pause tail, which
// reads out in histogram bucket bounds.
var perLayer = []metricDef{
	{"sparql.parse_us", "us"},
	{"plan.build_us", "us"},
	{"plan.stats_rebuild_ms", "ms"},
	{"exec.scan_cpu_us", "us"},
	{"exec.join_cpu_us", "us"},
	{"exec.filter_cpu_us", "us"},
	{"exec.gather_cpu_us", "us"},
	{"exec.gather_alloc_kb", "KiB"},
	{"exec.distinct_cpu_us", "us"},
	{"exec.filter_selectivity", "ratio"},
	{"exec.rows_examined_per_row", "ratio"},
	{"udf.calls_per_query", "count"},
	{"udf.sw_hit_us", "us"},
	{"udf.sw_miss_us", "us"},
	{"mpp.collectives_per_query", "count"},
	{"mpp.comm_kb_per_query", "KiB"},
	{"mpp.world_us", "us"},
	{"vecstore.search_us", "us"},
	{"vecstore.recall_at_10", "ratio"},
	{"vecstore.build_s", "s"},
	{"vecstore.upsert_us", "us"},
	{"ids.engine_query_ms", "ms"},
	{"ids.strings_us_per_row", "us"},
	{"obs.tracing_ratio", "ratio"},
	{"runtime.gc_per_1k_ops", "count"},
}

// checkDefs rejects a declared metric with an invalid or repeated name
// or unit.
func checkDefs() error {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
			return fmt.Errorf("metric %q [%s]: invalid or repeated", d.name, d.unit)
		}
		seen[d.name] = true
	}
	return nil
}

// metricSet collects every metric a run measures; the declared ones go
// into the JSON line, and the table prints them all.
type metricSet struct {
	vals  map[string]metricValue
	notes map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() metricSet {
	return metricSet{vals: map[string]metricValue{}, notes: map[string]string{}}
}

func (m metricSet) set(name string, v float64, unit string) {
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

func (m metricSet) note(name, s string) { m.notes[name] = s }

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: funnel, explore-http or curate-write")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run with the per-layer table")
	fs.StringVar(&workDir, "workdir", ".bench_build/perfbench", "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkDefs(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (funnel|explore-http|curate-write), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, m, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printTable(stdout, wl, *seed, *trace == 1, m, defs)
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload sets up, warms up, measures and checks one workload.
func runWorkload(wl workloadDef, seed int64, window time.Duration, traced bool, log io.Writer) (result, metricSet, error) {
	m := newMetricSet()
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var b *bench
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = procStart
		}
		var err error
		if b, err = wl.setup(seed); err != nil {
			return result{}, m, fmt.Errorf("setup: %w", err)
		}
		for _, rs := range b.loop(warmOps[wl.name], time.Time{}, nil) {
			for _, x := range rs {
				if x.err != nil {
					b.close()
					return result{}, m, fmt.Errorf("warm-up: %w", x.err)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < reps-1 {
			if err := b.close(); err != nil {
				return result{}, m, err
			}
		}
	}
	defer b.close()
	sort.Float64s(setups)
	m.set("setup_s", setups[len(setups)/2], "s")

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	runtime.GC()
	var w windowStats
	if traced {
		// The first half of the window runs untraced and gives the GC
		// figures, so they exclude the spans the traced half keeps.
		plain := newMetricSet()
		w = b.measure(window/2, nil, plain)
		w.add(b.measure(window/2, tr, m))
		for _, n := range []string{"runtime.gc_per_1k_ops", "runtime.gc_pause_tail_us"} {
			m.vals[n], m.notes[n] = plain.vals[n], plain.notes[n]
		}
	} else {
		w = b.measure(window, nil, m)
	}
	if b.sys.vs != nil {
		w.check(checkRecall(b.sys.vs, seed, b.sys.centers))
	}

	if traced {
		if err := b.probeLayers(tr, seed, m); err != nil {
			return result{}, m, err
		}
		var low error
		if r := m.vals["vecstore.recall_at_10"].Value; r < recallFloor {
			low = fmt.Errorf("probe store: HNSW recall@10 %.4f below %.2f", r, recallFloor)
		}
		w.check(low)
		if b.sys.durable != nil {
			start := time.Now()
			if _, err := b.sys.inst.Checkpoint(); err != nil {
				return result{}, m, err
			}
			d := time.Since(start)
			tr.add(tr.newReq(), 0, "ids.checkpoint", start, start.Add(d))
			m.set("wal.checkpoint_ms", ms(d), "ms")
		}
	}
	if b.sys.durable != nil {
		checks, failed, err := b.recover(m)
		if err != nil {
			return result{}, m, err
		}
		w.attempted += checks
		w.failed += failed
	}
	m.set("ok_rate", 1-ratio(float64(w.failed), float64(w.attempted)), "ratio")
	m.set("error_rate", ratio(float64(w.failed), float64(w.attempted)), "ratio")
	if traced {
		if err := writeSpans(tr, wl.name, seed); err != nil {
			return result{}, m, err
		}
		printSelfTimes(log, tr)
	}
	for _, e := range w.errs {
		fmt.Fprintf(log, "# error: %v\n", e)
	}
	return result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed}, m, nil
}

// windowStats is what the timed window counted.
type windowStats struct {
	attempted, failed int
	errs              []error // the first few, for the log
}

// add counts another window's operations.
func (w *windowStats) add(o windowStats) {
	w.attempted += o.attempted
	w.failed += o.failed
	for _, e := range o.errs {
		w.note(e)
	}
}

// check counts one correctness check made outside the window.
func (w *windowStats) check(err error) {
	w.attempted++
	if err != nil {
		w.failed++
		w.note(err)
	}
}

func (w *windowStats) note(err error) {
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

// measure runs the timed window and fills the window metrics.
func (b *bench) measure(window time.Duration, tr *tracer, m metricSet) windowStats {
	prom0 := b.scrape()
	bytes0 := b.responseBytes()
	udf0 := b.udfExecs()
	rt0 := readRuntime()
	cpu0 := procCPU()
	start := time.Now()
	results := b.loop(0, start.Add(window), tr)
	elapsed := time.Since(start)
	cpu := procCPU() - cpu0
	rt1 := readRuntime()
	udf1 := b.udfExecs()
	bytes1 := b.responseBytes()
	prom1 := b.scrape()

	var w windowStats
	var queryLat, updateLat, overhead []float64
	var queriesOK, ops int
	for _, rs := range results {
		for _, r := range rs {
			ops++
			w.attempted++
			if !r.ok {
				w.failed++
				w.note(r.err)
				continue
			}
			if r.kind == opQuery {
				queriesOK++
				queryLat = append(queryLat, ms(r.latency))
			} else {
				updateLat = append(updateLat, ms(r.latency))
			}
			if r.hasOver {
				overhead = append(overhead, ms(r.overhead))
			}
		}
	}
	q := newDist(queryLat)
	m.set("query_p50_ms", q.p50(), "ms")
	p99, pq := q.tail(0.99)
	m.set("query_p99_ms", p99, "ms")
	m.note("query_p99_ms", fmt.Sprintf("p%.4g of %d queries", pq*100, q.n()))
	m.set("query_qps", float64(queriesOK)/elapsed.Seconds(), "1/s")
	perOp := func(x float64) float64 { return x / float64(max(ops, 1)) }
	m.set("cpu_ms_per_op", perOp(ms(cpu)), "ms")
	m.set("alloc_kb_per_op", perOp(float64(rt1.allocBytes-rt0.allocBytes)/1024), "KiB")
	m.set("mallocs_per_op", perOp(float64(rt1.allocObjs-rt0.allocObjs)), "count")
	m.note("cpu_ms_per_op", fmt.Sprintf("%d ops in %.2fs, GOMAXPROCS %d", ops, elapsed.Seconds(), runtime.GOMAXPROCS(0)))
	if len(updateLat) > 0 {
		u := newDist(updateLat)
		m.set("update_p50_ms", u.p50(), "ms")
		up99, uq := u.tail(0.99)
		m.set("update_p99_ms", up99, "ms")
		m.note("update_p99_ms", fmt.Sprintf("p%.4g of %d updates and upserts", uq*100, u.n()))
	}
	m.set("runtime.gc_per_1k_ops", perOp(float64(rt1.gcCycles-rt0.gcCycles))*1000, "count")
	pause, pq2, pn := pauseTail(rt0, rt1)
	m.set("runtime.gc_pause_tail_us", pause*1e6, "us")
	m.note("runtime.gc_pause_tail_us", fmt.Sprintf("p%.4g of %d pauses", pq2*100, pn))
	m.set("udf.calls_per_query", ratio(float64(udf1-udf0), float64(len(queryLat))), "count")

	// The server's own counters over the window.
	if b.sys.inst != nil {
		d := func(k string) float64 { return prom1[k] - prom0[k] }
		m.set("ids.serve_overhead_ms", newDist(overhead).p50(), "ms")
		m.set("ids.response_kb_per_op", perOp(float64(bytes1-bytes0)/1024), "KiB")
		m.set("ids.admission_wait_ms", ratio(d("ids_admission_wait_seconds_sum"), d("ids_admission_wait_seconds_count"))*1e3, "ms")
		if b.sys.durable != nil {
			n := float64(len(updateLat))
			m.set("wal.bytes_per_update", ratio(d("ids_wal_bytes_total"), n), "B")
			m.set("wal.fsyncs_per_update", ratio(d("ids_wal_fsyncs_total"), n), "count")
			m.set("wal.fsync_ms", ratio(d("ids_wal_fsync_seconds_sum"), d("ids_wal_fsync_seconds_count"))*1e3, "ms")
			m.set("wal.checkpoints", d("ids_checkpoints_total"), "count")
		}
	}

	// Live heap after a forced GC at the end of the run.
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() == metrics.KindUint64 {
		m.set("heap_live_mb", float64(live[0].Value.Uint64())/(1<<20), "MiB")
	}
	return w
}

// scrape reads the server's /metrics counters (nil in process).
func (b *bench) scrape() map[string]float64 {
	if b.sys.inst == nil {
		return nil
	}
	text, err := b.clients[0].http.MetricsText()
	if err != nil {
		return nil
	}
	return promValues(text)
}

// responseBytes is the HTTP response bytes the clients have read.
func (b *bench) responseBytes() int64 {
	var n int64
	for _, c := range b.clients {
		n += c.respBytes.Load()
	}
	return n
}

// udfExecs is the merged UDF execution count of the engine.
func (b *bench) udfExecs() int64 {
	var n int64
	for _, s := range b.sys.eng.MergedProfile().Snapshot() {
		n += s.Execs
	}
	return n
}

// recover tears the durable instance down, relaunches it from the same
// directory, times readiness (recovery_s), and verifies every
// acknowledged write.
func (b *bench) recover(m metricSet) (checks, failed int, err error) {
	cfg := *b.sys.durable
	if err := b.sys.inst.Teardown(); err != nil {
		return 0, 0, fmt.Errorf("teardown: %w", err)
	}
	b.sys.inst = nil
	start := time.Now()
	inst, err := (ids.Launcher{}).Launch(ids.LaunchConfig{Topo: serverTopo, Addr: "127.0.0.1:0", Durability: &cfg})
	if err != nil {
		return 0, 0, fmt.Errorf("relaunch: %w", err)
	}
	m.set("recovery_s", time.Since(start).Seconds(), "s")
	b.sys.inst = inst
	checks, failed, firstErr := b.verifyRecovery(inst)
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", firstErr)
	}
	m.note("recovery_s", fmt.Sprintf("%d acknowledged-write checks, %d failed", checks, failed))
	return checks, failed, nil
}

func writeSpans(tr *tracer, workload string, seed int64) error {
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints the run stamp and every metric measured, the ones
// the JSON line carries first and starred. Lines start with '#' so only
// the last line is JSON.
func printTable(w io.Writer, wl workloadDef, seed int64, traced bool, m metricSet, defs []metricDef) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d traced=%v go=%s GOMAXPROCS=%d nproc=%d topology=%s clients=2\n",
		wl.name, seed, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), topoOf(wl.name))
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
	}
	line := func(name string) {
		v := m.vals[name]
		mark := " "
		if declared[name] {
			mark = "*"
		}
		note := m.notes[name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "# %s %-30s %14.6g %-6s%s\n", mark, name, v.Value, v.Unit, note)
	}
	for _, d := range defs {
		line(d.name)
	}
	var rest []string
	for n := range m.vals {
		if !declared[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		line(n)
	}
}

func topoOf(name string) string {
	if name == "funnel" {
		return fmt.Sprintf("%dx%d", funnelTopo.Nodes, funnelTopo.RanksPerNode)
	}
	return fmt.Sprintf("%dx%d", serverTopo.Nodes, serverTopo.RanksPerNode)
}

// printSelfTimes prints each layer's span count, total and self time.
func printSelfTimes(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "# %-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/span")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(w, "# %-24s %8d %12.3f %12.3f %12.2f\n", r.name, r.count,
			ms(r.total), ms(r.own), us(r.own)/float64(r.count))
	}
}
