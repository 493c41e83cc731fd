package main

import (
	"fmt"
	"runtime"

	"xdeal/internal/fleet"
)

// workload is one closed batch: every measured repetition runs the same
// seeded sweeps through fleet.Sweep, each pool worker taking the next
// deal (or world) as it frees up.
type workload struct {
	name string
	// deals is the population of one sweep; sweeps is the number of
	// sweeps per repetition, run one after another, each from its own
	// master seed (see sweepSeeds).
	deals, sweeps int
	// workers is the pool size; 0 means one per CPU.
	workers int
	fees    bool
	arena   *fleet.ArenaOptions
}

var workloads = []workload{
	{
		// The paper's per-deal protocols at population scale: the
		// dealsweep defaults, one isolated world per deal. Four sweeps
		// per repetition give peak_rss_mb four samples to take the
		// median of; one sweep's peak varies by ~10% run to run.
		name:   "isolated-sweep",
		deals:  1024,
		sweeps: 4,
	},
	{
		// One shared world of 400 deals per sweep: every deal's parties
		// hear every event on the four FIFO chains, so per-deal cost
		// grows with the world's population. Three worlds per
		// repetition average out how much one seeded world costs.
		name:    "shared-arena",
		deals:   400,
		sweeps:  3,
		workers: 1,
		arena:   &fleet.ArenaOptions{DealsPerArena: 400, Chains: 4},
	},
	{
		// Fee-market, bundle-auction, hedged shared worlds of 50 deals,
		// run in parallel across the pool, eight worlds per sweep.
		name:   "market-arena",
		deals:  400,
		sweeps: 4,
		fees:   true,
		arena:  &fleet.ArenaOptions{DealsPerArena: 50, Chains: 4, Bundles: true, Hedge: true},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func (w workload) poolSize() int {
	if w.workers > 0 {
		return w.workers
	}
	return runtime.NumCPU()
}

// genOptions are the dealsweep defaults: mixed protocols, adversary
// rate 0.3, DoS rate 0.15 (isolated worlds only), at most 6 parties.
func (w workload) genOptions(seed uint64) fleet.GenOptions {
	g := fleet.GenOptions{
		Seed:          seed,
		Protocol:      "mixed",
		AdversaryRate: 0.3,
		DoSRate:       0.15,
		MaxParties:    6,
	}
	if w.fees {
		g.Fees = &fleet.FeeOptions{}
	}
	return g
}

// total is the number of deals one repetition runs.
func (w workload) total() int { return w.deals * w.sweeps }

// sweepSeeds derives each sweep's master seed from the run's seed: the
// first sweep uses the seed itself, sweep k adds k<<32, so every sweep
// can be replayed with cmd/dealsweep from its printed seed.
func (w workload) sweepSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, w.sweeps)
	for k := range seeds {
		seeds[k] = seed + uint64(k)<<32
	}
	return seeds
}

// options is the sweep every repetition runs from one sweep seed; obs
// nil is the untraced configuration.
func (w workload) options(seed uint64, obs *fleet.ObsOptions) fleet.Options {
	o := fleet.Options{Deals: w.deals, Workers: w.poolSize(), Gen: w.genOptions(seed), Obs: obs}
	if w.arena != nil {
		ao := *w.arena
		o.Arena = &ao
	}
	return o
}

// arenas returns the number of worlds in one sweep and the size of
// world a.
func (w workload) arenas() int {
	if w.arena == nil {
		return 0
	}
	return (w.deals + w.arena.DealsPerArena - 1) / w.arena.DealsPerArena
}

func (w workload) arenaSize(a int) int {
	return min(w.arena.DealsPerArena, w.deals-a*w.arena.DealsPerArena)
}

// populate constructs each sweep's generator and synthesizes the whole
// population through fleet's public generator API: one job per deal for
// isolated worlds, one deal population per shared world.
func (w workload) populate(seed uint64) error {
	for _, s := range w.sweepSeeds(seed) {
		gen, err := fleet.NewGenerator(w.genOptions(s))
		if err != nil {
			return err
		}
		if w.arena == nil {
			for i := 0; i < w.deals; i++ {
				gen.Job(i)
			}
			continue
		}
		for a := 0; a < w.arenas(); a++ {
			if _, err := gen.ArenaPopulation(a, w.arenaSize(a), *w.arena); err != nil {
				return err
			}
		}
	}
	return nil
}
