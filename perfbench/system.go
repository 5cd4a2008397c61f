package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"ids/internal/ids"
	"ids/internal/mpp"
	"ids/internal/synth"
	"ids/internal/vecstore"
	"ids/internal/vecstore/hnsw"
	"ids/internal/wal"
	"ids/internal/workflow"
)

// The ci-scale NCNPR graph every workload runs on (about 18k triples):
// the paper's Table 2 tiers over 3000 reviewed background proteins and
// 300 unreviewed ones. It is fixed — the workload seed varies the
// operations, not the graph — so the Table 2 candidate counts
// (1129/121/57/56) hold on every run.
func buildDataset(shards int) (*synth.Dataset, error) {
	return synth.BuildNCNPR(synth.NCNPRConfig{
		Seed:               7,
		Shards:             shards,
		SeqLen:             240,
		Tiers:              synth.DefaultTable2Tiers(),
		BackgroundProteins: 3000,
		UnreviewedProteins: 300,
		SkipBackgroundSim:  true,
	})
}

// registerWorkflow registers the NCNPR UDFs (ncnpr.sw/pic50/dtba) with
// the ci-scale cost ladder: 0.84 ms of virtual time per SW comparison.
func registerWorkflow(e *ids.Engine, ds *synth.Dataset) (*workflow.Workflow, error) {
	cfg := workflow.DefaultConfig()
	cfg.SWCost = 0.84e-3
	cfg.DockSteps = 120
	return workflow.New(e, ds, cfg, nil)
}

// Topologies: the funnel runs the paper's query at 4×4 = 16 ranks; the
// server workloads run the server's default 2×4 = 8 ranks.
var (
	funnelTopo = mpp.Topology{Nodes: 4, RanksPerNode: 4}
	serverTopo = mpp.Topology{Nodes: 2, RanksPerNode: 4}
)

// decoys pads the fingerprint store to about 2k vectors beside the
// 1129 NCNPR compounds.
const decoys = 871

func decoyKey(i int) string { return fmt.Sprintf("http://ids.example.org/decoy/D%05d", i) }

// seedVectors makes the seeded 32-d L2 fingerprint store over every
// compound plus decoys, without an index.
func seedVectors(u universe, seed int64, centers [][]float32) (*vecstore.Store, error) {
	vs, err := vecstore.New(vecDim, vecstore.L2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x66696e67))
	for _, c := range u.compounds {
		if err := vs.Add(c, clusteredVec(rng, centers)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < decoys; i++ {
		if err := vs.Add(decoyKey(i), clusteredVec(rng, centers)); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// buildVectors makes the seeded fingerprint store with an HNSW index.
// It returns the index build time separately from the vector
// generation.
func buildVectors(u universe, seed int64, centers [][]float32) (*vecstore.Store, float64, error) {
	vs, err := seedVectors(u, seed, centers)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := vs.EnableHNSW(hnsw.Config{Seed: seed}); err != nil {
		return nil, 0, err
	}
	return vs, time.Since(t0).Seconds(), nil
}

// system is one set-up workload: the graph, the engine the workload
// drives and, for the server workloads, the launched instance.
type system struct {
	ds      *synth.Dataset
	u       universe
	eng     *ids.Engine
	wf      *workflow.Workflow
	inst    *ids.Instance // nil for the in-process funnel
	vs      *vecstore.Store
	seed    int64
	centers [][]float32
	durable *ids.DurabilityConfig
}

// close tears the instance down and removes its data directory.
func (s *system) close() error {
	var err error
	if s.inst != nil {
		err = s.inst.Teardown()
		s.inst = nil
	}
	if s.durable != nil {
		if rerr := os.RemoveAll(s.durable.Dir); err == nil {
			err = rerr
		}
		s.durable = nil
	}
	return err
}

// newFunnelSystem builds the in-process 16-rank engine, tracing off.
func newFunnelSystem() (*system, error) {
	ds, err := buildDataset(funnelTopo.Size())
	if err != nil {
		return nil, err
	}
	e, err := ids.NewEngine(ds.Graph, funnelTopo)
	if err != nil {
		return nil, err
	}
	wf, err := registerWorkflow(e, ds)
	if err != nil {
		return nil, err
	}
	return &system{ds: ds, u: newUniverse(ds), eng: e, wf: wf}, nil
}

// newServerSystem launches the HTTP instance on a loopback port with
// default admission and always-on tracing, registers the workflow UDFs
// and attaches the fingerprint store. With durable set, updates are
// write-ahead logged with fsync on every append into a fresh directory.
func newServerSystem(seed int64, durable bool) (*system, error) {
	ds, err := buildDataset(serverTopo.Size())
	if err != nil {
		return nil, err
	}
	s := &system{ds: ds, u: newUniverse(ds), seed: seed, centers: vecCenters(seed)}
	cfg := ids.LaunchConfig{Graph: ds.Graph, Topo: serverTopo, Addr: "127.0.0.1:0"}
	if durable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		s.durable = &ids.DurabilityConfig{Dir: dir, Fsync: wal.FsyncAlways}
		cfg.Durability = s.durable
	}
	if s.inst, err = (ids.Launcher{}).Launch(cfg); err != nil {
		s.close()
		return nil, err
	}
	s.eng = s.inst.Engine
	if s.wf, err = registerWorkflow(s.eng, ds); err != nil {
		s.close()
		return nil, err
	}
	if s.vs, _, err = buildVectors(s.u, seed, s.centers); err != nil {
		s.close()
		return nil, err
	}
	if err := s.eng.AttachVectors("fp", s.vs); err != nil {
		s.close()
		return nil, err
	}
	if durable {
		// Fold the attached store into a checkpoint so recovery restores
		// it before replaying the logged upserts.
		if _, err := s.inst.Checkpoint(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}
