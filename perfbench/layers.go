package main

import (
	"fmt"
	"math/rand"
	"time"

	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/vecstore"
)

// Layer probes of the traced run. Each times one public entry point of
// a module on the workload's own inputs, after the timed window, with
// the system idle. Every call is wrapped in a span.

// probeReps repeats each probe text so medians are steady.
const probeReps = 5

// tracingPairs is the number of traced/untraced round pairs behind
// obs.tracing_ratio.
const tracingPairs = 9

// recallFloor is the lowest acceptable HNSW recall@10 against brute
// force. A store below it fails the run's correctness check.
const recallFloor = 0.95

func medianOf(xs []float64) float64 {
	return newDist(xs).p50()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeLayers fills the per-layer metrics into m.
func (b *bench) probeLayers(tr *tracer, seed int64, m metricSet) error {
	e := b.sys.eng
	texts := b.probeTexts

	// sparql: parse the workload's own texts.
	var parse []float64
	parsed := make([]*sparql.Query, len(texts))
	for r := 0; r < probeReps; r++ {
		for i, t := range texts {
			var err error
			start := time.Now()
			parsed[i], err = sparql.Parse(t)
			d := time.Since(start)
			tr.add(tr.newReq(), 0, "sparql.parse", start, start.Add(d))
			if err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
			parse = append(parse, us(d))
		}
	}
	m.set("sparql.parse_us", medianOf(parse), "us")

	// plan: stats rebuild on the live graph, then Build with them.
	var rebuild []float64
	var st *plan.Stats
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		st = plan.StatsFromGraph(e.Graph)
		d := time.Since(start)
		tr.add(tr.newReq(), 0, "plan.stats_rebuild", start, start.Add(d))
		rebuild = append(rebuild, ms(d))
	}
	st.Vectors = map[string]int{}
	if b.sys.vs != nil {
		st.Vectors["fp"] = b.sys.vs.Len()
	}
	m.set("plan.stats_rebuild_ms", medianOf(rebuild), "ms")
	var build []float64
	for r := 0; r < probeReps; r++ {
		for _, q := range parsed {
			start := time.Now()
			_, err := plan.Build(q, st)
			d := time.Since(start)
			tr.add(tr.newReq(), 0, "plan.build", start, start.Add(d))
			if err != nil {
				return fmt.Errorf("plan probe: %w", err)
			}
			build = append(build, us(d))
		}
	}
	m.set("plan.build_us", medianOf(build), "us")

	// exec, mpp and ids decode: traced in-process queries.
	opCPU := map[string]float64{}
	opAlloc := map[string]float64{}
	var filterIn, filterOut, scanOut, resultRows, collectives, commBytes float64
	var stringsUS []float64
	var nq float64
	for r := 0; r < probeReps; r++ {
		for _, t := range texts {
			req := tr.newReq()
			start := time.Now()
			res, err := e.QueryTraced(t)
			end := time.Now()
			if err != nil {
				return fmt.Errorf("exec probe: %w", err)
			}
			root := tr.add(req, 0, "engine.query_traced", start, end)
			tr.attachTrace(req, root, start, res.Trace)
			nq++
			for _, op := range res.Trace.Ops {
				opCPU[op.Op] += op.CPUSeconds * 1e6
				opAlloc[op.Op] += float64(op.AllocBytes) / 1024
				switch op.Op {
				case "filter":
					filterIn += float64(op.RowsIn)
					filterOut += float64(op.RowsOut)
				case "scan":
					scanOut += float64(op.RowsOut)
				}
			}
			resultRows += float64(len(res.Rows))
			collectives += float64(res.Report.Comm.Collectives)
			commBytes += float64(res.Report.Comm.Bytes)
			start = time.Now()
			rows := e.Strings(res)
			d := time.Since(start)
			tr.add(req, 0, "ids.strings", start, start.Add(d))
			if len(rows) > 0 {
				stringsUS = append(stringsUS, us(d)/float64(len(rows)))
			}
		}
	}
	for op := range opCPU {
		m.set("exec."+op+"_cpu_us", opCPU[op]/nq, "us")
		m.set("exec."+op+"_alloc_kb", opAlloc[op]/nq, "KiB")
	}
	m.set("exec.filter_selectivity", ratio(filterOut, filterIn), "ratio")
	m.set("exec.rows_examined_per_row", ratio(scanOut, resultRows), "ratio")
	m.set("mpp.collectives_per_query", collectives/nq, "count")
	m.set("mpp.comm_kb_per_query", commBytes/nq/1024, "KiB")
	m.set("ids.strings_us_per_row", medianOf(stringsUS), "us")

	// ids: the same texts in process with tracing off. obs: the cost of
	// tracing as the ratio of a traced to an untraced round over the
	// texts. Rounds run in pairs whose order alternates, so CPU-speed
	// drift cancels, and the median pair ratio is reported.
	var engine, ratios []float64
	round := func(tracing bool) (float64, error) {
		e.SetTracing(tracing)
		start := time.Now()
		for _, t := range texts {
			qs := time.Now()
			if _, err := e.Query(t); err != nil {
				return 0, fmt.Errorf("engine probe: %w", err)
			}
			d := time.Since(qs)
			tr.add(tr.newReq(), 0, "ids.engine_query", qs, qs.Add(d))
			if !tracing {
				engine = append(engine, ms(d))
			}
		}
		return ms(time.Since(start)), nil
	}
	for r := 0; r < tracingPairs; r++ {
		var on, off float64
		for _, tracing := range []bool{r%2 == 0, r%2 != 0} {
			d, err := round(tracing)
			if err != nil {
				e.SetTracing(b.sys.inst != nil)
				return err
			}
			if tracing {
				on = d
			} else {
				off = d
			}
		}
		ratios = append(ratios, on/off)
	}
	// The server traces every query; the in-process funnel does not.
	e.SetTracing(b.sys.inst != nil)
	m.set("ids.engine_query_ms", medianOf(engine), "ms")
	m.set("obs.tracing_ratio", medianOf(ratios), "ratio")
	m.set("obs.tracing_overhead_pct", (medianOf(ratios)-1)*100, "%")

	// udf: SW on a memoised sequence (the target's own, which is in the
	// graph; the first call may fill the memo, the median is a hit) and
	// on fresh ones.
	hitArg := []expr.Value{expr.String(b.sys.ds.TargetSeq)}
	var hit, miss []float64
	rng := rand.New(rand.NewSource(seed ^ 0x7377))
	seq := make([]byte, 240)
	for i := 0; i < 200; i++ {
		start := time.Now()
		_, _, err := e.Reg.CallUDF("ncnpr.sw", hitArg)
		d := time.Since(start)
		tr.add(tr.newReq(), 0, "udf.sw_hit", start, start.Add(d))
		if err != nil {
			return fmt.Errorf("udf probe: %w", err)
		}
		hit = append(hit, us(d))
		for j := range seq {
			seq[j] = residues[rng.Intn(len(residues))]
		}
		arg := []expr.Value{expr.String(string(seq))}
		start = time.Now()
		_, _, err = e.Reg.CallUDF("ncnpr.sw", arg)
		d = time.Since(start)
		tr.add(tr.newReq(), 0, "udf.sw_miss", start, start.Add(d))
		if err != nil {
			return fmt.Errorf("udf probe: %w", err)
		}
		miss = append(miss, us(d))
	}
	m.set("udf.sw_hit_us", medianOf(hit), "us")
	m.set("udf.sw_miss_us", medianOf(miss), "us")

	// mpp: an empty world over the workload's topology.
	var world []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := mpp.Run(e.Topo, mpp.DefaultNet(), 1, func(*mpp.Rank) error { return nil }); err != nil {
			return fmt.Errorf("mpp probe: %w", err)
		}
		d := time.Since(start)
		tr.add(tr.newReq(), 0, "mpp.world", start, start.Add(d))
		world = append(world, us(d))
	}
	m.set("mpp.world_us", medianOf(world), "us")

	return b.probeVectors(tr, seed, m)
}

// probeVectors measures the vector layer on a store built exactly as
// the server workloads build theirs: build time, HNSW search latency,
// recall@10 against brute force, and upsert latency.
func (b *bench) probeVectors(tr *tracer, seed int64, m metricSet) error {
	centers := vecCenters(seed)
	start := time.Now()
	vs, buildS, err := buildVectors(b.sys.u, seed, centers)
	if err != nil {
		return err
	}
	tr.add(tr.newReq(), 0, "vecstore.build", start, time.Now())
	m.set("vecstore.build_s", buildS, "s")
	rng := rand.New(rand.NewSource(seed ^ 0x71))
	recall, search, err := hnswRecall(vs, rng, centers, tr)
	if err != nil {
		return err
	}
	m.set("vecstore.search_us", medianOf(search), "us")
	m.set("vecstore.recall_at_10", recall, "ratio")
	var upsert []float64
	for i := 0; i < 200; i++ {
		v := clusteredVec(rng, centers)
		start := time.Now()
		if _, err := vs.Upsert(fmt.Sprintf("probe/%d", i), v); err != nil {
			return fmt.Errorf("vector probe: %w", err)
		}
		d := time.Since(start)
		tr.add(tr.newReq(), 0, "vecstore.upsert", start, start.Add(d))
		upsert = append(upsert, us(d))
	}
	m.set("vecstore.upsert_us", medianOf(upsert), "us")
	return nil
}

// hnswRecall runs 200 seeded clustered queries through SearchHNSW and
// brute force. It returns recall@10 and the HNSW search latencies in us.
func hnswRecall(vs *vecstore.Store, rng *rand.Rand, centers [][]float32, tr *tracer) (float64, []float64, error) {
	var search []float64
	var found, total int
	for i := 0; i < 200; i++ {
		q := clusteredVec(rng, centers)
		start := time.Now()
		hits, _, err := vs.SearchHNSW(q, 10, 0)
		d := time.Since(start)
		tr.add(tr.newReq(), 0, "vecstore.search_hnsw", start, start.Add(d))
		if err != nil {
			return 0, nil, fmt.Errorf("vector probe: %w", err)
		}
		search = append(search, us(d))
		exact, err := vs.Search(q, 10)
		if err != nil {
			return 0, nil, fmt.Errorf("vector probe: %w", err)
		}
		want := map[string]bool{}
		for _, h := range exact {
			want[h.Key] = true
		}
		for _, h := range hits {
			if want[h.Key] {
				found++
			}
		}
		total += len(exact)
	}
	return ratio(float64(found), float64(total)), search, nil
}

// checkRecall is the quality floor of a store: its recall@10 must reach
// recallFloor.
func checkRecall(vs *vecstore.Store, seed int64, centers [][]float32) error {
	recall, _, err := hnswRecall(vs, rand.New(rand.NewSource(seed^0x72)), centers, nil)
	if err == nil && recall < recallFloor {
		err = fmt.Errorf("HNSW recall@10 %.4f below %.2f", recall, recallFloor)
	}
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
