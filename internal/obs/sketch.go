package obs

import (
	"math"
	"sort"
)

// Dist summarizes a sample distribution with percentiles.
type Dist struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// sketchGamma is the Sketch's log-bucket base: values within the same
// bucket differ by at most 2%, which bounds the percentile error.
const sketchGamma = 1.02

// Sketch is a constant-memory streaming summary of a sample
// distribution: count, sum, min and max are exact; percentiles come
// from a log-bucketed histogram at ~2% relative resolution (a DDSketch
// in miniature). Adding a sample is O(1) and the bucket count is
// bounded by the dynamic range of the data, not the sample count — so
// populations of millions of deals aggregate in constant memory. The
// summary is order-independent, so streaming and batch folds agree,
// and two sketches merge by adding bucket counts. The zero value is an
// empty sketch; methods on a nil sketch are no-ops.
type Sketch struct {
	count    int
	sum      float64
	min, max float64
	nonpos   int // samples ≤ 0, kept out of the log buckets
	buckets  map[int]int
}

// Add folds one sample into the sketch.
func (s *Sketch) Add(v float64) {
	if s == nil {
		return
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v <= 0 {
		s.nonpos++
		return
	}
	if s.buckets == nil {
		s.buckets = make(map[int]int)
	}
	s.buckets[int(math.Floor(math.Log(v)/math.Log(sketchGamma)))]++
}

// Count returns the number of samples (0 on nil).
func (s *Sketch) Count() int {
	if s == nil {
		return 0
	}
	return s.count
}

// merge folds o into s. Counts and buckets add and min/max take the
// extremes, so merge order cannot reach the result; the sum is exact
// (and so order-independent too) for integral samples such as ticks.
func (s *Sketch) merge(o *Sketch) {
	if o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	s.nonpos += o.nonpos
	if s.buckets == nil {
		s.buckets = make(map[int]int, len(o.buckets))
	}
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
}

// bucketIndexes returns the occupied log-bucket indexes, ascending.
func (s *Sketch) bucketIndexes() []int {
	idxs := make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// Dist summarizes the sketch. Min, max and mean are exact; the
// percentiles are bucket representatives, within 2% of the true value.
func (s *Sketch) Dist() Dist {
	d := Dist{Count: s.Count()}
	if d.Count == 0 {
		return d
	}
	d.Min, d.Max = s.min, s.max
	d.Mean = s.sum / float64(s.count)
	idxs := s.bucketIndexes()
	quantile := func(p float64) float64 {
		rank := int(math.Ceil(p * float64(s.count)))
		if rank <= s.nonpos {
			return 0 // non-positive samples sort below every bucket
		}
		seen := s.nonpos
		for _, i := range idxs {
			seen += s.buckets[i]
			if seen >= rank {
				// Geometric bucket midpoint, clamped to the observed range.
				v := math.Pow(sketchGamma, float64(i)+0.5)
				return math.Min(math.Max(v, s.min), s.max)
			}
		}
		return s.max
	}
	d.P50 = quantile(0.50)
	d.P90 = quantile(0.90)
	d.P99 = quantile(0.99)
	return d
}

// snapshotBuckets lists the occupied buckets in ascending edge order:
// an LE 0 bucket for non-positive samples, then log bucket i (samples
// in [γ^i, γ^(i+1))) as LE γ^(i+1).
func (s *Sketch) snapshotBuckets() []Bucket {
	var out []Bucket
	if s.nonpos > 0 {
		out = append(out, Bucket{LE: 0, N: uint64(s.nonpos)})
	}
	for _, i := range s.bucketIndexes() {
		out = append(out, Bucket{LE: math.Pow(sketchGamma, float64(i+1)), N: uint64(s.buckets[i])})
	}
	return out
}
