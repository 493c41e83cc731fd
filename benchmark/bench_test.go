package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"xdeal/internal/fleet"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "root", ID: -1, Parent: -1, Start: 0, End: 10},
		{Name: "child", ID: 0, Parent: 0, Start: 1, End: 5},
		{Name: "child", ID: 1, Parent: 0, Start: 3, End: 7},  // overlaps the first
		{Name: "child", ID: 2, Parent: 0, Start: 9, End: 12}, // runs past the parent
	}}
	got := l.layers()
	if want := time.Duration(10 - 6 - 1).Seconds(); got["root"].Self != want {
		t.Errorf("root self = %v, want %v", got["root"].Self, want)
	}
	if c := got["child"]; c.Count != 3 || c.Self != c.Total {
		t.Errorf("leaf spans: %+v, want 3 spans with self == total", c)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "xdeal/internal/sig.Verify", "xdeal/internal/party.(*Party).onChainEvent"}, "crypto"},
		{[]string{"runtime.mallocgc", "xdeal/internal/chain.(*Chain).dispatch.func1", "xdeal/internal/sim.(*Scheduler).Run"}, "chain"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"xdeal/internal/bft.(*Committee).Encode"}, "crypto"},
		{[]string{"xdeal/internal/timelock.(*Manager).handleCommit"}, "contracts"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack[0], got, tc.want)
		}
	}
}

func TestCPUSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	sum := sha256.Sum256(nil)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sum = sha256.Sum256(sum[:])
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, layer := range cpuLayers {
		total += shares[layer]
	}
	if samples == 0 || math.Abs(total-1) > 1e-9 {
		t.Fatalf("%d samples, shares sum to %v", samples, total)
	}
	if shares["crypto"] == 0 {
		t.Error("a sha256 loop's profile has no crypto samples")
	}
}

func TestFailedDealsHonoursSynchronyBroken(t *testing.T) {
	r := &fleet.Report{Violations: []fleet.Violation{
		{Index: 3, Property: "safety (P1)", Detail: "party p1: ... [synchrony-broken: 5000-tick DoS outage exceeds Δ=1000]"},
		{Index: 4, Property: "safety (P1)", Detail: "party p2: outgoing assets transferred but incoming assets missing (Property 1)"},
		{Index: 4, Property: "liveness (P2)", Detail: "party p3: ..."},
		{Index: 9, Property: "error", Detail: "build: bad spec"},
	}}
	if got := failedDeals([]*fleet.Report{r}); got != 2 {
		t.Errorf("failedDeals = %d, want 2 (deals 4 and 9)", got)
	}
}

func TestSweepSeedsKeepTheRunSeedFirst(t *testing.T) {
	w, err := findWorkload("shared-arena")
	if err != nil {
		t.Fatal(err)
	}
	seeds := w.sweepSeeds(7)
	if len(seeds) != w.sweeps || seeds[0] != 7 || seeds[1] != 7+1<<32 {
		t.Errorf("sweep seeds %v", seeds)
	}
}
