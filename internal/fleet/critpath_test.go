package fleet

import (
	"bytes"
	"strings"
	"testing"

	"xdeal/internal/trace"
)

// critPathBlock renders just the critical-path section of a sweep's
// report at the given worker count.
func critPathBlock(t *testing.T, workers int) string {
	t.Helper()
	opts := sweepOpts(60, workers)
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPath == nil || len(rep.CriticalPath.Slices) == 0 {
		t.Fatal("sweep produced no critical-path block")
	}
	var buf bytes.Buffer
	fprintCriticalPath(&buf, rep.CriticalPath)
	return buf.String()
}

// TestCriticalPathBlockIndependentOfWorkerCount: the attribution
// aggregation folds in deal-index order regardless of which worker ran
// which deal, so the rendered block is byte-identical at any pool
// size. Under -race this also exercises the post-hoc span derivation
// for data races.
func TestCriticalPathBlockIndependentOfWorkerCount(t *testing.T) {
	want := critPathBlock(t, 1)
	for _, workers := range []int{4, 16} {
		if got := critPathBlock(t, workers); got != want {
			t.Fatalf("critical-path block at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
	for _, bucket := range trace.Buckets {
		if !strings.Contains(want, bucket.String()) {
			t.Fatalf("rendered block lacks bucket %q:\n%s", bucket, want)
		}
	}
}

// TestCritPathConservation: every decided deal's attribution conserves
// its total exactly — the fleet-side restatement of the engine
// invariant, checked across a mixed adversarial population.
func TestCritPathConservation(t *testing.T) {
	opts := sweepOpts(60, 4)
	g, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	records := RunJobs(g.Jobs(opts.Deals), 4)
	decided := 0
	for _, rec := range records {
		if rec.CritPath == nil {
			continue
		}
		decided++
		cp := rec.CritPath
		sum := cp.ProtocolWait + cp.BlockQueueing + cp.PricedOut + cp.Adversary + cp.Slack
		if sum != cp.Total {
			t.Fatalf("deal %d: buckets sum to %d, total %d: %+v", rec.Index, sum, cp.Total, cp)
		}
		if cp.Total <= 0 {
			t.Fatalf("deal %d: non-positive total: %+v", rec.Index, cp)
		}
	}
	if decided == 0 {
		t.Fatal("no deal in the population carried an attribution")
	}
}
