package obs

// Wall-clock and Go-runtime reads live in this file (and prof.go) only.
// internal/obs is a sanctioned wrapper under the noclock analyzer, like
// internal/sim: the readings below feed machine-local stage breakdowns,
// never the deterministic reports, so replay stays exact.

import (
	"sort"
	"sync"
	"time"
)

// StageTimer accumulates wall-clock seconds per named stage of a sweep
// (generate / run / aggregate). A nil StageTimer is a no-op, so the
// fleet times stages unconditionally.
type StageTimer struct {
	mu      sync.Mutex
	seconds map[string]float64
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer {
	return &StageTimer{seconds: make(map[string]float64)}
}

// Start begins timing a stage and returns the function that stops it,
// folding the elapsed wall time into the stage's running total.
func (t *StageTimer) Start(stage string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := time.Since(begin).Seconds()
		t.mu.Lock()
		t.seconds[stage] += d
		t.mu.Unlock()
	}
}

// Seconds returns the accumulated wall time for one stage.
func (t *StageTimer) Seconds(stage string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seconds[stage]
}

// StageSeconds is one stage's accumulated wall time.
type StageSeconds struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// Stages returns every stage's total, sorted by stage name.
func (t *StageTimer) Stages() []StageSeconds {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSeconds, 0, len(t.seconds))
	for stage, sec := range t.seconds {
		out = append(out, StageSeconds{Stage: stage, Seconds: sec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}
