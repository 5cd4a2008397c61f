package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ids/internal/synth"
)

// The operation streams. Everything the program receives — query texts,
// update payloads, vectors — is generated here from the workload seed,
// so the same seed gives a byte-identical operation sequence.

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
	opUpsert
)

func (k opKind) String() string {
	switch k {
	case opQuery:
		return "query"
	case opUpdate:
		return "update"
	default:
		return "upsert"
	}
}

// op is one operation a client sends.
type op struct {
	kind  opKind
	shape string // query shape or update kind, for reporting
	text  string // SPARQL query or update text
	// pool indexes the reference answer of a pooled query text (-1 for
	// texts whose expected answer travels with the op).
	pool int
	// want is the expected answer hash for ops that carry their own
	// expectation (curator point lookups): sum of row hashes and count.
	want answer
	// key and vec form a vector upsert into the "fp" store.
	key string
	vec []float32
	// batch is the curator batch this op belongs to (-1 otherwise).
	batch int
}

// universe is what the op generators draw IRIs from: the dataset's
// proteins and compounds in a fixed order.
type universe struct {
	tierProteins []string // proteins with compounds
	bgProteins   []string // reviewed background proteins, no compounds
	compounds    []string // every compound
}

func newUniverse(ds *synth.Dataset) universe {
	var u universe
	for p := range ds.ProteinSim {
		if len(ds.CompoundsOf[p]) > 0 {
			u.tierProteins = append(u.tierProteins, p)
		} else if strings.HasPrefix(p, synth.NSProtein+"B") {
			u.bgProteins = append(u.bgProteins, p)
		}
	}
	for c := range ds.SMILESOf {
		u.compounds = append(u.compounds, c)
	}
	sort.Strings(u.tierProteins)
	sort.Strings(u.bgProteins)
	sort.Strings(u.compounds)
	return u
}

const prefixes = "PREFIX up: <" + synth.NSUp + "> PREFIX ch: <" + synth.NSChem + "> "

// exploreShape renders one short exploratory query of the given shape
// over seeded IRIs. Every shape is anchored on IRIs of the original
// graph, so its answer cannot change while the curator inserts and
// deletes its own proteins — except SIMILAR, the last shape, because
// HNSW inserts can change approximate neighbour lists.
func exploreShape(rng *rand.Rand, u universe, shape int) (string, string) {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	protein := func() string {
		if rng.Intn(3) == 0 {
			return pick(u.bgProteins)
		}
		return pick(u.tierProteins)
	}
	iris := func(n int, from func() string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = "<" + from() + ">"
		}
		return strings.Join(parts, " ")
	}
	compound := func() string { return pick(u.compounds) }
	switch shape {
	case 0:
		return "whatis", fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o . }", protein())
	case 1:
		return "hop1", fmt.Sprintf(prefixes+"SELECT ?c ?ic WHERE { ?c ch:inhibits <%s> . ?c ch:ic50 ?ic . }", protein())
	case 2:
		return "hop2", fmt.Sprintf(prefixes+"SELECT ?c2 ?s WHERE { <%s> ch:inhibits ?p . ?c2 ch:inhibits ?p . ?c2 ch:smiles ?s . }", compound())
	case 3:
		return "optional", fmt.Sprintf(prefixes+"SELECT ?p ?m ?c WHERE { VALUES ?p { %s } ?p up:mnemonic ?m . OPTIONAL { ?c ch:inhibits ?p . } }", iris(3, protein))
	case 4:
		return "union", fmt.Sprintf(prefixes+"SELECT DISTINCT ?x WHERE { { <%s> ch:inhibits ?x . } UNION { <%s> ch:inhibits ?x . } }", compound(), compound())
	case 5:
		return "groupby", fmt.Sprintf(prefixes+"SELECT ?p (COUNT(?c) AS ?n) WHERE { VALUES ?p { %s } ?c ch:inhibits ?p . } GROUP BY ?p ORDER BY DESC(?n) ?p LIMIT 3", iris(6, protein))
	case 6:
		return "values", fmt.Sprintf(prefixes+"SELECT ?c ?s WHERE { VALUES ?c { %s } ?c ch:smiles ?s . }", iris(4, compound))
	case 7:
		return "bind", fmt.Sprintf(prefixes+"SELECT ?c ?um WHERE { ?c ch:inhibits <%s> . ?c ch:ic50 ?ic . BIND(?ic * 0.001 AS ?um) }", protein())
	case 8:
		return "pic50", fmt.Sprintf(prefixes+"SELECT ?c ?ic WHERE { ?c ch:inhibits <%s> . ?c ch:ic50 ?ic . FILTER(ncnpr.pic50(?ic) > %d) }", pick(u.tierProteins), 6+rng.Intn(3))
	default:
		return "similar", fmt.Sprintf(prefixes+`SELECT ?c ?s WHERE { SIMILAR(?c, <%s>, %d, "fp") . ?c ch:smiles ?s . }`, compound(), 5+rng.Intn(6))
	}
}

// pooledText is one query text of a workload's pool, with its
// reference answer filled in at setup.
type pooledText struct {
	shape string
	text  string
	want  answer
}

// exploreShapes is the number of exploratory shapes; the last one,
// SIMILAR, is left out where answers must stay stable under writes.
const exploreShapes = 10

// explorePool draws n exploratory texts, the shapes in equal shares and
// the IRIs seeded; the clients cycle through the pool, so the working
// set is n texts over a few hundred IRIs and the shape mix is the same
// for every seed.
func explorePool(seed int64, u universe, n int, stableOnly bool) []pooledText {
	rng := rand.New(rand.NewSource(seed))
	shapes := exploreShapes
	if stableOnly {
		shapes--
	}
	out := make([]pooledText, n)
	for i := range out {
		out[i].shape, out[i].text = exploreShape(rng, u, i%shapes)
	}
	return out
}

// stream yields one client's operations.
type stream interface{ next() op }

// cycleStream cycles through pool entries in a seeded order, so every
// window of a run sends each entry in equal shares.
type cycleStream struct {
	pool  []pooledText
	order []int
	n     int
}

func newCycleStream(rng *rand.Rand, pool []pooledText, entries []int) *cycleStream {
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return &cycleStream{pool: pool, order: entries}
}

func (s *cycleStream) next() op {
	i := s.order[s.n%len(s.order)]
	s.n++
	return op{kind: opQuery, shape: s.pool[i].shape, text: s.pool[i].text, pool: i, batch: -1}
}

func indexRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// scientistStream is the curate-write reader: the funnel query (pool
// entry 0) once in every scientistCycle queries, exploratory texts in
// between.
type scientistStream struct {
	explore *cycleStream
	n       int
}

const scientistCycle = 4

func (s *scientistStream) next() op {
	s.n++
	if s.n%scientistCycle == 1 {
		p := s.explore.pool
		return op{kind: opQuery, shape: p[0].shape, text: p[0].text, pool: 0, batch: -1}
	}
	return s.explore.next()
}

// Curator shape: each batch adds curatedProteins reviewed proteins with
// random 240-residue sequences, each inhibited by curatedCompounds
// non-potent compounds; liveBatches bounds how many batches stay in the
// graph before the oldest is deleted, which holds the graph in a fixed
// size band.
const (
	curatedProteins  = 2
	curatedCompounds = 2
	liveBatches      = 6
	vecDim           = 32
)

// curatedTriple is one generated triple in N-Triples term form.
type curatedTriple struct{ s, p, o string }

// batch is one curator batch: its triples, the protein lookups that
// must see it, and its fingerprint vectors.
type batch struct {
	id       int
	triples  []curatedTriple
	proteins []string
	keys     []string
	vecs     [][]float32
}

func iriTerm(s string) string { return "<" + s + ">" }
func litTerm(s string) string { return fmt.Sprintf("%q", s) }

func (b *batch) data() string {
	var sb strings.Builder
	for _, t := range b.triples {
		fmt.Fprintf(&sb, "%s %s %s . ", t.s, t.p, t.o)
	}
	return sb.String()
}

// lookupText is the point query that must see (or not see) protein p.
func lookupText(p string) string { return fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o . }", p) }

const residues = "ALGVESIKRDTPNQFYMHCW"

// curatorStream is the curate-write curator: insert a batch, upsert its
// fingerprints, look one live protein up, and delete the oldest batch
// once more than liveBatches are live.
type curatorStream struct {
	rng     *rand.Rand
	centers [][]float32
	seed    int64
	queue   []op
	nextID  int
	live    []*batch
	batches []*batch
}

func newCuratorStream(seed int64, centers [][]float32) *curatorStream {
	return &curatorStream{rng: rand.New(rand.NewSource(seed ^ 0x6375726174)), centers: centers, seed: seed}
}

func (s *curatorStream) newBatch() *batch {
	b := &batch{id: s.nextID}
	s.nextID++
	residueBuf := make([]byte, 240)
	for i := 0; i < curatedProteins; i++ {
		p := fmt.Sprintf("%sW%d_%05d_%d", synth.NSProtein, s.seed, b.id, i)
		for j := range residueBuf {
			residueBuf[j] = residues[s.rng.Intn(len(residues))]
		}
		b.proteins = append(b.proteins, p)
		b.triples = append(b.triples,
			curatedTriple{iriTerm(p), iriTerm(synth.PredType), iriTerm(synth.ClassProtein)},
			curatedTriple{iriTerm(p), iriTerm(synth.PredReviewed), litTerm("true")},
			curatedTriple{iriTerm(p), iriTerm(synth.PredSequence), litTerm(string(residueBuf))},
			curatedTriple{iriTerm(p), iriTerm(synth.PredMnemonic), litTerm(fmt.Sprintf("W%05d_%d_CUR", b.id, i))},
		)
		for c := 0; c < curatedCompounds; c++ {
			key := fmt.Sprintf("%sW%d_%05d_%d_%d", synth.NSCompound, s.seed, b.id, i, c)
			// Non-potent: IC50 between 3 uM and 1 mM, so pIC50 < 6.
			ic50 := 3000 + s.rng.Float64()*997000
			smiles := "C" + strings.Repeat("C", 1+s.rng.Intn(8)) + "O"
			b.triples = append(b.triples,
				curatedTriple{iriTerm(key), iriTerm(synth.PredType), iriTerm(synth.ClassChem)},
				curatedTriple{iriTerm(key), iriTerm(synth.PredSMILES), litTerm(smiles)},
				curatedTriple{iriTerm(key), iriTerm(synth.PredInhibits), iriTerm(p)},
				curatedTriple{iriTerm(key), iriTerm(synth.PredIC50), litTerm(fmt.Sprintf("%.3f", ic50))},
			)
			b.keys = append(b.keys, key)
			b.vecs = append(b.vecs, clusteredVec(s.rng, s.centers))
		}
	}
	return b
}

func (s *curatorStream) next() op {
	if len(s.queue) == 0 {
		b := s.newBatch()
		s.batches = append(s.batches, b)
		s.queue = append(s.queue, op{kind: opUpdate, shape: "insert", text: "INSERT DATA { " + b.data() + "}", pool: -1, batch: b.id})
		for i, k := range b.keys {
			s.queue = append(s.queue, op{kind: opUpsert, shape: "upsert", key: k, vec: b.vecs[i], pool: -1, batch: b.id})
		}
		s.live = append(s.live, b)
		probe := s.live[s.rng.Intn(len(s.live))]
		p := probe.proteins[s.rng.Intn(len(probe.proteins))]
		s.queue = append(s.queue, op{kind: opQuery, shape: "lookup", text: lookupText(p), pool: -1, want: proteinAnswer(probe, p), batch: probe.id})
		if len(s.live) > liveBatches {
			old := s.live[0]
			s.live = s.live[1:]
			s.queue = append(s.queue, op{kind: opUpdate, shape: "delete", text: "DELETE DATA { " + old.data() + "}", pool: -1, batch: old.id})
		}
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	return o
}

// proteinAnswer is the expected answer of lookupText(p) while p's batch
// is live: its four protein triples, as the server renders them.
func proteinAnswer(b *batch, p string) answer {
	var a answer
	for _, t := range b.triples {
		if t.s == iriTerm(p) {
			a.add([]string{t.p, t.o})
		}
	}
	return a
}

// batchAnswer digests every triple of the batch as the server renders
// it, subject first.
func batchAnswer(b *batch) answer {
	var a answer
	for _, t := range b.triples {
		a.add([]string{t.s, t.p, t.o})
	}
	return a
}

// Vector layout: a seeded 32-d mixture of Gaussian clusters. Compound
// fingerprints and decoys share the clusters, so k-NN neighbourhoods
// are dense and HNSW has real work to do.
const vecClusters = 24

func vecCenters(seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed ^ 0x76656373))
	cs := make([][]float32, vecClusters)
	for i := range cs {
		cs[i] = make([]float32, vecDim)
		for j := range cs[i] {
			cs[i][j] = float32(rng.NormFloat64() * 4)
		}
	}
	return cs
}

func clusteredVec(rng *rand.Rand, centers [][]float32) []float32 {
	c := centers[rng.Intn(len(centers))]
	v := make([]float32, vecDim)
	for j := range v {
		v[j] = c[j] + float32(rng.NormFloat64())
	}
	return v
}
