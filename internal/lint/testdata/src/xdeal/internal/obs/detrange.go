package obs

// Detrange fixtures: package basename "obs" holds the report's sketch
// and the metrics registry, so its map ranges are policed like fleet's.

type sketch struct {
	buckets map[int]int
}

func bucketCount(s *sketch) int {
	n := 0
	for _, c := range s.buckets { // ok: commutative integer fold
		n += c
	}
	return n
}

func weightedSum(s *sketch) float64 {
	total := 0.0
	for i, c := range s.buckets { // want `total is not an integer accumulator \(float and string folds are order-dependent\)`
		total += float64(i) * float64(c)
	}
	return total
}
