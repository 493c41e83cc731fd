package sim

import (
	"container/heap"
	"testing"
)

// heapQueue is the legacy single-binary-heap scheduler backend, kept in
// test code as a differential-testing oracle and benchmark baseline for
// the time-wheel. It unlinks canceled events immediately (index-tracked
// heap.Remove) and compacts its backing array after bursts, so Pending()
// counts live events only and memory tracks the live set.
type heapQueue struct {
	h farHeap
}

func (q *heapQueue) schedule(e *event) {
	e.loc = locFar
	heap.Push(&q.h, e)
}

func (q *heapQueue) remove(e *event) {
	if e.loc != locFar {
		return
	}
	heap.Remove(&q.h, e.hIdx)
	e.loc = locNone
	e.fn = nil
	q.h.maybeShrink()
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	e := heap.Pop(&q.h).(*event)
	e.loc = locNone
	q.h.maybeShrink()
	return e
}

func (q *heapQueue) advance(Time) {}

func (q *heapQueue) len() int { return len(q.h) }

// NewHeapScheduler returns a scheduler backed by the legacy binary heap.
// It executes the exact same (at, seq) order as the default time-wheel
// scheduler; it exists as a differential-testing oracle and a benchmark
// baseline.
func NewHeapScheduler() *Scheduler {
	return &Scheduler{q: &heapQueue{}}
}

// Scheduler backend duel: the time-wheel vs the legacy binary heap on
// the workloads that diverge asymptotically. "dense" is the near-future
// steady state every chain world lives in (delays well under one wheel
// rotation); "churn" schedules and immediately cancels — O(1) unlink on
// the wheel vs O(log n) heap fixup; "farspread" forces overflow-heap
// migration every rotation.
func BenchmarkMicroSchedulerWheelVsHeap(b *testing.B) {
	for _, be := range backends {
		be := be
		b.Run(be.name+"/dense", func(b *testing.B) {
			s := be.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(Duration(1+i%64), func() {})
				s.Step()
			}
		})
		b.Run(be.name+"/churn", func(b *testing.B) {
			s := be.mk()
			// A standing population keeps the heap's cancel cost honest.
			for i := 0; i < 4096; i++ {
				s.After(Duration(10+i), func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cancel := s.After(Duration(5+i%128), func() {})
				cancel()
			}
		})
		b.Run(be.name+"/farspread", func(b *testing.B) {
			s := be.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(Duration(1+i%8192), func() {})
				s.Step()
			}
		})
	}
}
