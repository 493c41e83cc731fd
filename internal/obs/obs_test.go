package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("a").Inc()
	reg.Counter("a").Add(5)
	reg.Gauge("b").Set(9)
	reg.Histogram("c").Add(3)
	if got := reg.Counter("a").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	if got := reg.Gauge("b").High(); got != 0 {
		t.Fatalf("nil gauge high = %d, want 0", got)
	}
	if got := reg.Histogram("c").Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
	if s := reg.Snapshot(); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", len(s.Metrics))
	}
	reg.Merge(NewRegistry()) // must not panic

	var rec *Recorder
	rec.Record(1, "x", "y", "z")
	if rec.Len() != 0 || rec.Dropped() != 0 || rec.Events() != nil {
		t.Fatal("nil recorder is not a no-op")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var st *StageTimer
	st.Start("run")()
	if st.Seconds("run") != 0 || st.Stages() != nil {
		t.Fatal("nil stage timer is not a no-op")
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("deals").Add(3)
	reg.Counter("deals").Inc()
	if got := reg.Counter("deals").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 || g.High() != 7 {
		t.Fatalf("gauge value/high = %d/%d, want 2/7", g.Value(), g.High())
	}
	h := reg.Histogram("delay")
	for _, v := range []float64{0, 1, 2, 5, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	s := reg.Snapshot()
	var m *Metric
	for i := range s.Metrics {
		if s.Metrics[i].Name == "delay" {
			m = &s.Metrics[i]
		}
	}
	if m == nil {
		t.Fatal("delay histogram missing from snapshot")
	}
	// 0 is non-positive; 1, 2, 5 and 100 sit in log buckets 0, 35, 81
	// and 232, whose upper edges are 1.02^(i+1).
	wantBuckets := []Bucket{
		{LE: 0, N: 1},
		{LE: math.Pow(1.02, 1), N: 1},
		{LE: math.Pow(1.02, 36), N: 1},
		{LE: math.Pow(1.02, 82), N: 1},
		{LE: math.Pow(1.02, 233), N: 1},
	}
	if len(m.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %v", m.Buckets)
	}
	for i, b := range wantBuckets {
		if m.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, m.Buckets[i], b)
		}
	}
	if m.Count != 5 || m.Sum != 108 {
		t.Fatalf("count/sum = %d/%g, want 5/108", m.Count, m.Sum)
	}
}

// TestMergeCommutative: merging the same shards in different orders
// must yield byte-identical snapshots — the property the fleet relies
// on for worker-count independence.
func TestMergeCommutative(t *testing.T) {
	shard := func(seedlike int) *Registry {
		r := NewRegistry()
		r.Counter("blocks").Add(uint64(seedlike * 3))
		r.Gauge("mempool").Set(int64(10 - seedlike))
		h := r.Histogram("queue")
		for i := 0; i < seedlike*4; i++ {
			h.Add(float64(i * seedlike))
		}
		return r
	}
	forward := NewRegistry()
	for i := 1; i <= 4; i++ {
		forward.Merge(shard(i))
	}
	backward := NewRegistry()
	for i := 4; i >= 1; i-- {
		backward.Merge(shard(i))
	}
	var a, b bytes.Buffer
	if err := forward.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := backward.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge order changed the snapshot:\nforward:\n%s\nbackward:\n%s", a.String(), b.String())
	}
	if forward.Counter("blocks").Value() != 3+6+9+12 {
		t.Fatalf("merged counter = %d", forward.Counter("blocks").Value())
	}
	if forward.Gauge("mempool").High() != 9 {
		t.Fatalf("merged gauge high = %d, want 9", forward.Gauge("mempool").High())
	}
	if got := forward.Histogram("queue").Count(); got != 4+8+12+16 {
		t.Fatalf("merged histogram count = %d, want 40", got)
	}
}

func TestRecorderBoundedAndEvicting(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Record(int64(i), "test", "tick", "")
	}
	if rec.Len() != 4 {
		t.Fatalf("len = %d, want 4", rec.Len())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
	evs := rec.Events()
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq || ev.At != int64(wantSeq) {
			t.Fatalf("event %d = %+v, want seq/at %d", i, ev, wantSeq)
		}
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	rec := NewRecorder(0)
	for i := 0; i < DefaultFlightCap+10; i++ {
		rec.Record(int64(i), "s", "k", "")
	}
	if rec.Len() != DefaultFlightCap {
		t.Fatalf("len = %d, want %d", rec.Len(), DefaultFlightCap)
	}
	if rec.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", rec.Dropped())
	}
}

func TestRecorderJSONL(t *testing.T) {
	rec := NewRecorder(8)
	rec.Record(-1, "dealsweep", "config", "seed=7")
	rec.Record(12, "fleet", "violation", "deal 3: P2 sore loser")
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl has %d lines, want 2", len(lines))
	}
	want0 := `{"seq":0,"at":-1,"source":"dealsweep","kind":"config","detail":"seed=7"}`
	if lines[0] != want0 {
		t.Fatalf("line 0 = %s, want %s", lines[0], want0)
	}
	var ev FlightEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if ev.Seq != 1 || ev.At != 12 || ev.Kind != "violation" {
		t.Fatalf("line 1 round-trips to %+v", ev)
	}
}

func TestStageTimer(t *testing.T) {
	st := NewStageTimer()
	st.Start("generate")()
	stop := st.Start("run")
	stop()
	st.Start("run")()
	stages := st.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Stage != "generate" || stages[1].Stage != "run" {
		t.Fatalf("stages not sorted: %+v", stages)
	}
	for _, s := range stages {
		if s.Seconds < 0 {
			t.Fatalf("negative stage time: %+v", s)
		}
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	p := Profiles{
		CPU:   filepath.Join(dir, "cpu.pprof"),
		Mem:   filepath.Join(dir, "mem.pprof"),
		Mutex: filepath.Join(dir, "mutex.pprof"),
	}
	if !p.Enabled() {
		t.Fatal("profiles should report enabled")
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Do a little work so the CPU profile has something to sample.
	reg := NewRegistry()
	for i := 0; i < 1000; i++ {
		reg.Histogram("work").Add(float64(i))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPU, p.Mem, p.Mutex} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	if (Profiles{}).Enabled() {
		t.Fatal("zero Profiles should report disabled")
	}
}
