package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ids/internal/expr"
)

// answer is an order-independent digest of a result multiset: the sum
// of per-row FNV-1a hashes plus the row count. Two answers are equal
// exactly when the sorted rows are equal (up to hash collisions).
type answer struct {
	sum uint64
	n   int
}

func (a *answer) add(cells []string) {
	h := fnv.New64a()
	for _, c := range cells {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	a.sum += h.Sum64()
	a.n++
}

func stringsAnswer(rows [][]string) answer {
	var a answer
	for _, r := range rows {
		a.add(r)
	}
	return a
}

// valuesAnswer digests engine rows without decoding them, so checking
// an in-process answer costs no allocation inside the timed window.
func valuesAnswer(rows [][]expr.Value) answer {
	var a answer
	var buf [8]byte
	for _, r := range rows {
		h := fnv.New64a()
		for _, v := range r {
			buf[0] = byte(v.Kind)
			h.Write(buf[:1])
			putU64(&buf, uint64(v.ID))
			h.Write(buf[:])
			putU64(&buf, math.Float64bits(v.Num))
			h.Write(buf[:])
			h.Write([]byte(v.Str))
			if v.Bool {
				h.Write([]byte{1})
			}
			h.Write([]byte{0})
		}
		a.sum += h.Sum64()
		a.n++
	}
	return a
}

func putU64(b *[8]byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0<q<1) of sorted samples, by
// linear interpolation between closest ranks. It refuses a percentile
// with fewer than minBeyond samples above it: with n samples, q may be
// at most 1 - minBeyond/n.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile q=%g of %d samples: %w", q, n, errFewSamples)
	}
	if float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples needs at least %d: %w",
			q*100, n, int(math.Ceil(minBeyond/(1-q))), errFewSamples)
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1], nil
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}

// dist is a latency distribution: its samples and the percentiles it
// supports.
type dist struct {
	samples []float64 // sorted
}

func newDist(s []float64) dist {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	return dist{samples: s}
}

func (d dist) n() int { return len(d.samples) }

// p50 is the median (0 without samples).
func (d dist) p50() float64 {
	v, err := percentile(d.samples, 0.5)
	if err != nil {
		if len(d.samples) == 0 {
			return 0
		}
		return d.samples[len(d.samples)/2]
	}
	return v
}

// tail returns the highest percentile up to maxQ that has at least
// minBeyond samples beyond it, and which percentile that was.
func (d dist) tail(maxQ float64) (v, q float64) {
	n := float64(len(d.samples))
	if n == 0 {
		return 0, 0
	}
	q = math.Min(maxQ, 1-minBeyond/n)
	if q < 0.5 {
		q = 0.5
	}
	v, err := percentile(d.samples, q)
	if err != nil {
		return d.samples[len(d.samples)-1], 1
	}
	return v, q
}

// Metric names: a letter or digit first, then up to 63 letters,
// digits, '_', '.' and '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// Units: up to 16 letters, digits, '_', '/', '%', '.' and '-'.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)

func validUnit(s string) bool { return unitRE.MatchString(s) }

// procCPU is the process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the runtime/metrics counters the benchmark uses.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	pauses                          *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	r.allocBytes = s[0].Value.Uint64()
	r.allocObjs = s[1].Value.Uint64()
	r.gcCycles = s[2].Value.Uint64()
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[3].Value.Float64Histogram()
	}
	return r
}

// pauseTail returns the GC pause tail over the window between two
// samples (highest percentile up to p99 with minBeyond pauses beyond
// it, from the bucket upper bounds) and the pause count.
func pauseTail(a, b rtSample) (sec, q float64, n uint64) {
	if a.pauses == nil || b.pauses == nil {
		return 0, 0, 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0, 0, 0
	}
	q = math.Min(0.99, 1-minBeyond/float64(n))
	if q < 0.5 {
		q = 0.5
	}
	want := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi, q, n
		}
	}
	return 0, q, n
}

// promValues parses Prometheus/OpenMetrics text into name{labels} →
// value, ignoring comments and exemplars.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out
}
