package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xdeal/internal/arena"
	"xdeal/internal/sim"
)

// arenaOpts is the canonical arena-mode population used across tests:
// three shared worlds of twenty deals each.
func arenaOpts(deals, workers int) Options {
	return Options{
		Deals:   deals,
		Workers: workers,
		Gen: GenOptions{
			Seed:          7,
			Protocol:      "mixed",
			AdversaryRate: 0.35,
		},
		Arena: &ArenaOptions{DealsPerArena: 20, Chains: 3, Baselines: true},
	}
}

func renderedArenaReport(t *testing.T, opts Options) string {
	t.Helper()
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep.ReplayCommand = "dealsweep -seed 7 -arena -replay %d"
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetArenaDeterministicAcrossWorkerCounts: arena sweeps keep the
// fleet's contract — the report is byte-identical for any pool size,
// because each arena is a single-threaded deterministic simulation and
// results fold in arena order. Run under -race this also exercises the
// arena fan-out for data races.
func TestFleetArenaDeterministicAcrossWorkerCounts(t *testing.T) {
	deals := 60
	if testing.Short() {
		deals = 20 // equality check only: scale the sweep, keep the pool racing
	}
	want := renderedArenaReport(t, arenaOpts(deals, 1))
	for _, workers := range []int{2, 4, 8} {
		if got := renderedArenaReport(t, arenaOpts(deals, workers)); got != want {
			t.Fatalf("arena report at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestFleetArenaInterferenceMetrics: the arena report carries the
// interference block — arena count, inflation distribution with one
// sample per baselined deal, and live adversary counters — and the
// population stays free of compliant-party violations.
func TestFleetArenaInterferenceMetrics(t *testing.T) {
	rep, err := Sweep(arenaOpts(60, 4))
	if err != nil {
		t.Fatal(err)
	}
	inf := rep.Interference
	if inf == nil {
		t.Fatal("arena sweep produced no interference metrics")
	}
	if inf.Arenas != 3 || inf.Chains != 3 {
		t.Fatalf("interference geometry wrong: %+v", inf)
	}
	if inf.LatencyInflation.Count == 0 {
		t.Fatal("baselines on, yet no latency-inflation samples")
	}
	if inf.FrontRunAttempts == 0 {
		t.Fatal("no front-run races at 35% adversary rate; the mempool hook is dead")
	}
	if inf.FrontRunWins > inf.FrontRunAttempts {
		t.Fatalf("won %d of %d races", inf.FrontRunWins, inf.FrontRunAttempts)
	}
	if !rep.Clean() {
		var buf bytes.Buffer
		rep.Fprint(&buf)
		t.Fatalf("arena population not clean:\n%s", buf.String())
	}
	if rep.Total.Runs != 60 {
		t.Fatalf("ran %d deals, want 60", rep.Total.Runs)
	}
	// Isolated-mode sweeps must not grow an interference block.
	plain, err := Sweep(sweepOpts(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Interference != nil {
		t.Fatal("isolated sweep reports interference")
	}
}

// TestFleetArenaReplayDeterministic: a flagged arena deal replays
// bit-for-bit from its population index — same seed, same spec, same
// outcome — and out-of-range indices are rejected.
func TestFleetArenaReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay indices are baked for the full 60-deal population")
	}
	opts := arenaOpts(60, 4)
	for _, idx := range []int{0, 19, 20, 42, 59} {
		a, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		fa := fmt.Sprintf("%d %d %s %v %s", a.Seed, a.Adversaries, a.Spec.ID, a.ArenaDelta, a.Result.Summary())
		fb := fmt.Sprintf("%d %d %s %v %s", b.Seed, b.Adversaries, b.Spec.ID, b.ArenaDelta, b.Result.Summary())
		if fa != fb {
			t.Fatalf("replay of arena deal %d not deterministic:\n%s\n---\n%s", idx, fa, fb)
		}
	}
	if _, err := ReplayArenaDeal(opts, 60); err == nil {
		t.Fatal("out-of-range replay index accepted")
	}
	if _, err := ReplayArenaDeal(Options{Deals: 10, Gen: GenOptions{Seed: 1}}, 0); err == nil {
		t.Fatal("arena replay without arena options accepted")
	}
}

// TestArenaSweepRejectsBadWorldAtAnySize: the sweep resolves its world
// options before any arena runs, so a world the arena refuses fails an
// empty sweep exactly as it fails a populated one.
func TestArenaSweepRejectsBadWorldAtAnySize(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arena ArenaOptions
	}{
		{"bundles-without-fees", ArenaOptions{Bundles: true}},
		{"negative-volatility", ArenaOptions{Volatility: -0.1}},
		{"negative-block-capacity", ArenaOptions{MaxBlockTxs: -1}},
	} {
		for _, deals := range []int{0, 5} {
			ao := tc.arena
			_, err := Sweep(Options{Deals: deals, Workers: 1, Gen: GenOptions{Seed: 1}, Arena: &ao})
			if err == nil || !strings.HasPrefix(err.Error(), "arena: ") {
				t.Errorf("%s at %d deals: err = %v, want an arena: error", tc.name, deals, err)
			}
		}
	}
}

// TestBenchmarkArenaOptionsMatchFleet: the repo benchmark runs
// arena.Run itself with only Seed, Protocol, FeeMarket, Bundles and
// Hedge set, relying on arena's defaults to give the world a fleet
// sweep resolves. For the benchmark's two arena shapes, on world 0
// (timelock) and world 1 (CBC), both option sets must produce identical
// outcomes and interference. DealsPerArena never reaches arena.Options,
// so a 30-deal population stands in for the benchmark's full worlds.
func TestBenchmarkArenaOptionsMatchFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		fees *FeeOptions
		ao   ArenaOptions
	}{
		{"fifo", nil, ArenaOptions{DealsPerArena: 400, Chains: 4}},
		{"market", &FeeOptions{}, ArenaOptions{DealsPerArena: 50, Chains: 4, Bundles: true, Hedge: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 3
			gen, err := NewGenerator(GenOptions{
				Seed: seed, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6, Fees: tc.fees,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := gen.resolveArena(tc.ao)
			if err != nil {
				t.Fatal(err)
			}
			for a, proto := range []string{"timelock", "cbc"} {
				pop, err := gen.ArenaPopulation(a, 30, tc.ao)
				if err != nil {
					t.Fatal(err)
				}
				// What benchmark/layers.go's arenaOptions builds.
				bench := arena.Options{
					Seed:      sim.Mix64(seed ^ sim.Mix64(uint64(a)+0x7fb5d329728ea185)),
					Protocol:  proto,
					FeeMarket: tc.fees != nil,
					Bundles:   tc.ao.Bundles,
					Hedge:     tc.ao.Hedge,
				}
				want, err := arena.Run(s.options(a), pop)
				if err != nil {
					t.Fatal(err)
				}
				got, err := arena.Run(bench, pop)
				if err != nil {
					t.Fatal(err)
				}
				if w, g := arenaFingerprint(want), arenaFingerprint(got); w != g {
					t.Fatalf("world %d (%s): benchmark options diverge from fleet's:\n--- fleet ---\n%s\n--- benchmark ---\n%s",
						a, proto, w, g)
				}
			}
		})
	}
}

// arenaFingerprint renders an arena result's interference and every
// deal's outcome.
func arenaFingerprint(res *arena.Result) string {
	s := fmt.Sprintf("%+v\n", res.Interference)
	for _, out := range res.Outcomes {
		s += fmt.Sprintf("deal %d %s delta=%v sore=%d races=%d bundles=%d/%d fees=%d stranded=%d hedge=%d/%d\n%s",
			out.Index, out.Spec.ID, out.ArenaDelta, out.SoreLosers, out.FrontRuns,
			out.BundleWins, out.BundleDefers, out.Fees, out.Stranded, out.Premiums, out.Payouts,
			out.Result.Summary())
	}
	return s
}

// TestFleetSweepStreamsIdenticalToBatch: Sweep's streaming fold (chunked
// jobs, constant memory) produces byte-for-byte the report of the batch
// path (materialize all records, Aggregate) — the population is large
// enough to cross several chunk boundaries.
func TestFleetSweepStreamsIdenticalToBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a population large enough to cross several chunk boundaries")
	}
	opts := sweepOpts(150, 4)
	streamed, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	batch := Aggregate(RunJobs(gen.Jobs(150), 4))
	var a, b bytes.Buffer
	streamed.Fprint(&a)
	if err := streamed.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	batch.Fprint(&b)
	if err := batch.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("streamed and batch reports diverge:\n--- streamed ---\n%s\n--- batch ---\n%s", a.String(), b.String())
	}
}

// TestReportReplayCommandRendered: when the caller supplies the replay
// command format, every flagged violation gets a ready-to-paste line.
func TestReportReplayCommandRendered(t *testing.T) {
	rep := Aggregate([]Record{
		{Index: 3, Seed: 11, SpecID: "ring-3/ring", Shape: ShapeRing, Protocol: "timelock",
			Sequenceable: true, Committed: true, SafetyViolations: []string{"party p: hurt"}},
	})
	rep.ReplayCommand = "dealsweep -seed 9 -deals 50 -replay %d"
	var buf bytes.Buffer
	rep.Fprint(&buf)
	want := "replay: dealsweep -seed 9 -deals 50 -replay 3"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report missing %q:\n%s", want, buf.String())
	}
}
