package obs

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"xdeal/internal/sim"
)

// NewDist computes a Dist over the samples exactly: a sorted copy for
// nearest-rank percentiles, the mean summed in input order. It is the
// test oracle for Sketch, which the reports and the registry use.
func NewDist(samples []float64) Dist {
	d := Dist{Count: len(samples)}
	if d.Count == 0 {
		return d
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Mean = sum / float64(len(s))
	d.P50 = percentile(s, 0.50)
	d.P90 = percentile(s, 0.90)
	d.P99 = percentile(s, 0.99)
	return d
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// TestSketchMatchesExactDist: on seeded samples shaped like the
// report's inputs (non-negative gas, latencies and ratios, with zeros
// and heavy tails), Sketch agrees with the exact oracle: count, min,
// max and mean exactly, p50/p90/p99 within the sketch's 2% resolution.
func TestSketchMatchesExactDist(t *testing.T) {
	rng := sim.NewRNG(11)
	gens := map[string]func() float64{
		"gas":       func() float64 { return float64(400_000 + rng.Intn(1_300_000)) },
		"latency":   func() float64 { return 0.01 + 30*rng.Float64() },
		"ratio":     func() float64 { return 0.8 + 0.5*rng.Float64() },
		"heavytail": func() float64 { return math.Exp(12 * rng.Float64()) },
		"withzeros": func() float64 { return float64(rng.Intn(4)) * rng.Float64() },
	}
	for _, name := range []string{"gas", "latency", "ratio", "heavytail", "withzeros"} {
		for _, n := range []int{1, 2, 3, 10, 99, 1000, 20_000} {
			samples := make([]float64, n)
			var sk Sketch
			for i := range samples {
				samples[i] = gens[name]()
				sk.Add(samples[i])
			}
			got, want := sk.Dist(), NewDist(samples)
			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || got.Mean != want.Mean {
				t.Fatalf("%s n=%d: exact fields diverge: sketch %+v, oracle %+v", name, n, got, want)
			}
			for _, q := range []struct {
				name      string
				got, want float64
			}{{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99}} {
				if math.Abs(q.got-q.want) > 0.02*q.want {
					t.Fatalf("%s n=%d: %s = %v, oracle %v (beyond 2%%)", name, n, q.name, q.got, q.want)
				}
			}
		}
	}
}

// TestDistPercentiles: the oracle's percentile summary on a known sample.
func TestDistPercentiles(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- { // unsorted input
		samples = append(samples, float64(i))
	}
	d := NewDist(samples)
	if d.Count != 100 || d.Min != 1 || d.Max != 100 {
		t.Fatalf("bounds wrong: %+v", d)
	}
	if d.P50 != 50 || d.P90 != 90 || d.P99 != 99 {
		t.Fatalf("percentiles wrong: %+v", d)
	}
	if d.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", d.Mean)
	}
	if z := NewDist(nil); z.Count != 0 || z.Max != 0 {
		t.Fatalf("empty dist not zero: %+v", z)
	}
}

// TestSketchConstantMemory: a million samples collapse into a bounded
// bucket set; count, min, max and mean stay exact and the percentile
// estimates stay within the sketch's 2% relative resolution.
func TestSketchConstantMemory(t *testing.T) {
	var s Sketch
	rng := sim.NewRNG(1)
	n := 1_000_000
	for i := 0; i < n; i++ {
		s.Add(float64(1 + rng.Intn(1_000_000)))
	}
	if len(s.buckets) > 1200 {
		t.Fatalf("sketch grew %d buckets over a 10^6 range; memory is not constant", len(s.buckets))
	}
	d := s.Dist()
	if d.Count != n {
		t.Fatalf("count = %d, want %d", d.Count, n)
	}
	if d.Min < 1 || d.Max > 1_000_000 {
		t.Fatalf("bounds wrong: %+v", d)
	}
	if d.Mean < 490_000 || d.Mean > 510_000 {
		t.Fatalf("mean %v far from uniform expectation", d.Mean)
	}
	for _, q := range []struct {
		got, want float64
	}{{d.P50, 500_000}, {d.P90, 900_000}, {d.P99, 990_000}} {
		if rel := q.got/q.want - 1; rel < -0.03 || rel > 0.03 {
			t.Fatalf("percentile %v deviates %v from %v", q.got, rel, q.want)
		}
	}
	// Zero and negative samples sort below every bucket.
	var z Sketch
	z.Add(0)
	z.Add(-5)
	z.Add(10)
	dz := z.Dist()
	if dz.P50 != 0 || dz.Min != -5 || dz.Max != 10 || dz.Count != 3 {
		t.Fatalf("non-positive handling wrong: %+v", dz)
	}
}

// tickSamples draws n integral tick durations shaped like the
// registry's inputs: mostly short queue delays, a heavy tail, and some
// zero-tick inclusions.
func tickSamples(rng *sim.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = float64(rng.Intn(50_000))
		default:
			out[i] = float64(1 + rng.Intn(40))
		}
	}
	return out
}

// TestSketchMergeMatchesSingleFold: samples split across shards — one
// empty, one holding only non-positive samples — and merged through
// registries in forward or reverse order give the same Dist and the
// same snapshot bytes as one sketch fed every sample.
func TestSketchMergeMatchesSingleFold(t *testing.T) {
	rng := sim.NewRNG(23)
	shards := [][]float64{
		nil,
		{0, -3, 0, -1},
		tickSamples(rng, 1),
		tickSamples(rng, 97),
		tickSamples(rng, 2_000),
		tickSamples(rng, 640),
	}
	single := NewRegistry()
	regs := make([]*Registry, len(shards))
	for k, samples := range shards {
		regs[k] = NewRegistry()
		h := regs[k].Histogram("queue")
		for _, v := range samples {
			h.Add(v)
			single.Histogram("queue").Add(v)
		}
	}
	forward, reverse := NewRegistry(), NewRegistry()
	for k := range regs {
		forward.Merge(regs[k])
		reverse.Merge(regs[len(regs)-1-k])
	}
	snapshotBytes := func(r *Registry) string {
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want, wantSnap := single.Histogram("queue").Dist(), snapshotBytes(single)
	for _, m := range []struct {
		name string
		r    *Registry
	}{{"forward", forward}, {"reverse", reverse}} {
		if got := m.r.Histogram("queue").Dist(); got != want {
			t.Fatalf("%s merge: Dist %+v, single fold %+v", m.name, got, want)
		}
		if got := snapshotBytes(m.r); got != wantSnap {
			t.Fatalf("%s merge: snapshot diverges from single fold:\n%s\nwant:\n%s", m.name, got, wantSnap)
		}
	}
	if want.Count != 4+1+97+2_000+640 || want.Min != -3 {
		t.Fatalf("single fold summary wrong: %+v", want)
	}
}

// TestSnapshotBucketsBracketSamples: every sample lands in the snapshot
// bucket whose edges bracket it (at or above the previous LE, at or
// below its own; LE 0 holds the non-positive samples), edges ascend,
// and the bucket counts sum to Count.
func TestSnapshotBucketsBracketSamples(t *testing.T) {
	rng := sim.NewRNG(5)
	samples := append(tickSamples(rng, 500), -2, 0.001, 0.5, 1, 1.5, 1e9)
	for i := 0; i < 500; i++ {
		samples = append(samples, math.Exp(20*rng.Float64()-5))
	}
	reg := NewRegistry()
	h := reg.Histogram("h")
	// Each sample's own bucket edge, read from a one-sample snapshot.
	perEdge := make(map[float64]uint64)
	sampleEdge := make([]float64, len(samples))
	for i, v := range samples {
		h.Add(v)
		one := NewRegistry()
		one.Histogram("h").Add(v)
		b := one.Snapshot().Metrics[0].Buckets
		if len(b) != 1 || b[0].N != 1 {
			t.Fatalf("one-sample snapshot of %v has buckets %+v", v, b)
		}
		sampleEdge[i] = b[0].LE
		perEdge[b[0].LE]++
	}
	m := reg.Snapshot().Metrics[0]
	var total uint64
	prev := make(map[float64]float64) // LE -> previous bucket's LE
	for i, b := range m.Buckets {
		total += b.N
		if perEdge[b.LE] != b.N {
			t.Fatalf("bucket LE %v counts %d, its samples number %d", b.LE, b.N, perEdge[b.LE])
		}
		prev[b.LE] = math.Inf(-1)
		if i > 0 {
			if b.LE <= m.Buckets[i-1].LE {
				t.Fatalf("bucket edges not ascending: %+v", m.Buckets)
			}
			prev[b.LE] = m.Buckets[i-1].LE
		}
	}
	if total != m.Count || m.Count != uint64(len(samples)) {
		t.Fatalf("bucket counts sum to %d, Count %d, samples %d", total, m.Count, len(samples))
	}
	for i, v := range samples {
		le := sampleEdge[i]
		lo, ok := prev[le]
		if !ok {
			t.Fatalf("sample %v's edge %v missing from the snapshot", v, le)
		}
		if v > le || v < lo || (le == 0) != (v <= 0) {
			t.Fatalf("sample %v outside its bucket [%v, %v]", v, lo, le)
		}
	}
}
