package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Metric kinds, as they appear in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing count. Methods on a nil counter
// are no-ops, so call sites never guard on whether metrics are enabled.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.n += d
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a sampled level with a high-water mark — e.g. mempool depth,
// where the peak is the congestion signal worth keeping. Methods on a
// nil gauge are no-ops.
type Gauge struct {
	v, hi int64
}

// Set records the current level, raising the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hi {
		g.hi = v
	}
}

// Value returns the last level set (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// High returns the high-water mark (0 on nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi
}

// Registry holds named instruments. A registry belongs to one
// simulation (world or arena) at a time and is merged into the
// sweep-level registry in fold order; every merge operation is
// commutative (sum, max), so the merged snapshot is identical for any
// worker count. The zero value of *Registry (nil) disables everything:
// instrument lookups return nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Sketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Sketch),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named distribution, creating it on first use.
// Returns nil (a no-op sketch) on a nil registry. Registered samples
// are sim-time durations in integer ticks, so sums merge exactly and
// the merged snapshot is independent of merge order.
func (r *Registry) Histogram(name string) *Sketch {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Sketch{}
		r.hists[name] = h
	}
	return h
}

// Merge folds another registry into this one: counters and sketch
// buckets add, gauge levels and high-water marks take the maximum.
// Safe for concurrent use; because every operation is commutative, the
// merged state is independent of merge order.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	//xdeal:unordered each name touches only its own counter, and the integer sum commutes
	for name, c := range o.counters {
		rc := r.counters[name]
		if rc == nil {
			rc = &Counter{}
			r.counters[name] = rc
		}
		rc.n += c.n
	}
	//xdeal:unordered each name touches only its own gauge, and max commutes
	for name, g := range o.gauges {
		rg := r.gauges[name]
		if rg == nil {
			rg = &Gauge{}
			r.gauges[name] = rg
		}
		if g.v > rg.v {
			rg.v = g.v
		}
		if g.hi > rg.hi {
			rg.hi = g.hi
		}
	}
	//xdeal:unordered each name touches only its own sketch, and Sketch.merge commutes (integral sums)
	for name, h := range o.hists {
		rh := r.hists[name]
		if rh == nil {
			rh = &Sketch{}
			r.hists[name] = rh
		}
		rh.merge(h)
	}
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations below the upper edge LE and at or above the previous
// bucket's edge. Buckets are log-spaced (2% apart, see Sketch) and only
// occupied ones appear; an LE 0 bucket counts non-positive samples.
type Bucket struct {
	LE float64 `json:"le"`
	N  uint64  `json:"n"`
}

// Metric is one instrument's flat snapshot row. Exactly one of the
// kind-specific field groups is populated.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Count is the counter value, or the histogram observation count.
	Count uint64 `json:"count,omitempty"`
	// Value / High are the gauge level and high-water mark.
	Value int64 `json:"value,omitempty"`
	High  int64 `json:"high,omitempty"`
	// Sum and Buckets describe a histogram: the total of all
	// observations and the occupied buckets in ascending edge order.
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a registry's flat, ordered dump: one row per instrument,
// sorted by (name, kind), so equal registries snapshot to equal bytes.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot dumps the registry. Safe for concurrent use; the result is
// sorted, so two registries holding the same state produce identical
// snapshots no matter how they were built.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms []Metric
	for name, c := range r.counters {
		ms = append(ms, Metric{Name: name, Kind: KindCounter, Count: c.n})
	}
	for name, g := range r.gauges {
		ms = append(ms, Metric{Name: name, Kind: KindGauge, Value: g.v, High: g.hi})
	}
	for name, h := range r.hists {
		ms = append(ms, Metric{Name: name, Kind: KindHistogram, Count: uint64(h.count), Sum: h.sum, Buckets: h.snapshotBuckets()})
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Kind < ms[j].Kind
	})
	return Snapshot{Metrics: ms}
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
