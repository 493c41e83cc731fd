package fleet

import (
	"fmt"

	"xdeal/internal/arena"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// ArenaOptions configures arena-mode sweeps: the population is split
// into shared worlds of DealsPerArena deals each, every arena runs as
// one single-threaded simulation, and arenas parallelize across the
// worker pool. The aggregate report gains Interference metrics.
type ArenaOptions struct {
	// DealsPerArena is the number of deals sharing one world; defaults
	// to 25. Bigger arenas mean more contention per chain.
	DealsPerArena int
	// Chains is the number of shared chains per arena; defaults to 4.
	Chains int
	// Volatility is the market's per-tick fractional price move
	// (default 0.02); it arms the sore-loser adversaries.
	Volatility float64
	// MaxBlockTxs caps per-block capacity on the shared chains
	// (default 8) — the contention mechanism.
	MaxBlockTxs int
	// Baselines re-runs each deal alone to measure contention-induced
	// decision-latency inflation (one extra isolated run per deal).
	Baselines bool
	// Bundles turns every arena's ordering game deal-granular: the
	// shared chains run per-block combinatorial auctions over
	// all-or-nothing deal bundles (see internal/bundle), the
	// front-runner slot of the adversary mix griefs whole bundles
	// instead of fee-bidding single transactions, and the report gains
	// a BundleAuctions block (win/defer rates, exclusion attempts and
	// successes, deadline slack by bid decile). Requires the sweep's
	// fee market (GenOptions.Fees).
	Bundles bool
	// BundleBudget caps each bundle griefer's total per-slot bid
	// increments (default 400).
	BundleBudget uint64
	// Hedge arms the sore-loser defense across the sweep: compliant
	// mix slots insure their deposits at premium-priced hedging
	// contracts (see internal/hedge), and the report gains a Hedging
	// block (premiums, payouts, residual loss, premium by base-fee-
	// volatility decile).
	Hedge bool
	// HedgeCollateral is the bond size as a multiple of the insured
	// deposit (default 1.0).
	HedgeCollateral float64
	// PremiumVolWindow is the realized base-fee volatility window (in
	// sealed blocks) premiums are priced over (default 32).
	PremiumVolWindow int
}

func (o *ArenaOptions) defaults() error {
	if o.DealsPerArena < 0 {
		return fmt.Errorf("fleet: negative deals-per-arena %d", o.DealsPerArena)
	}
	if o.Chains < 0 {
		return fmt.Errorf("fleet: negative chain count %d", o.Chains)
	}
	if o.DealsPerArena == 0 {
		o.DealsPerArena = 25
	}
	if o.Chains == 0 {
		o.Chains = 4
	}
	return nil
}

// arenaProtocol maps the generator's protocol mix onto the arena's
// single-protocol worlds: all deals at one escrow contract must share
// commit machinery, so "mixed" alternates whole arenas between the two
// protocols instead of mixing within one.
func arenaProtocol(mix string, arenaIdx int) string {
	if mix == "timelock" || mix == "cbc" {
		return mix
	}
	if arenaIdx%2 == 1 {
		return "cbc"
	}
	return "timelock"
}

// arenaSweep is an arena sweep's configuration, resolved once: the
// generator, the defaulted fleet options, and the world options every
// arena shares. Each arena adds only its own seed and protocol.
type arenaSweep struct {
	gen   *Generator
	ao    ArenaOptions
	world arena.Options
}

// resolveArena validates and resolves ao against this generator's
// options, so a bad world fails before any arena runs — even in an
// empty sweep.
func (g *Generator) resolveArena(ao ArenaOptions) (*arenaSweep, error) {
	if err := ao.defaults(); err != nil {
		return nil, err
	}
	world := arena.Options{
		Volatility:       ao.Volatility,
		MaxBlockTxs:      ao.MaxBlockTxs,
		Baselines:        ao.Baselines,
		Bundles:          ao.Bundles,
		BundleBudget:     ao.BundleBudget,
		Hedge:            ao.Hedge,
		HedgeCollateral:  ao.HedgeCollateral,
		PremiumVolWindow: ao.PremiumVolWindow,
	}
	if f := g.opts.Fees; f != nil {
		world.FeeMarket = true
		world.BaseFee = f.BaseFee
		world.TipBudget = f.TipBudget
	}
	world, err := world.WithDefaults()
	if err != nil {
		return nil, err
	}
	return &arenaSweep{gen: g, ao: ao, world: world}, nil
}

// ArenaPopulation synthesizes the population of arena a: count deals
// sharing ao.Chains chains, with this generator's adversary rate and
// size cap. Pure in (generator options, a), so any flagged deal can be
// regenerated for replay from its printed index alone.
func (g *Generator) ArenaPopulation(a, count int, ao ArenaOptions) ([]arena.DealSetup, error) {
	s, err := g.resolveArena(ao)
	if err != nil {
		return nil, err
	}
	return s.population(a, count)
}

// population synthesizes arena a's count deals for the sweep's world.
func (s *arenaSweep) population(a, count int) ([]arena.DealSetup, error) {
	return arena.NewPopulation(arena.PopOptions{
		Seed:          sim.Mix64(s.gen.opts.Seed ^ sim.Mix64(uint64(a)+0x51ed270b941a9e37)),
		Deals:         count,
		Chains:        s.ao.Chains,
		MaxParties:    s.gen.opts.MaxParties,
		AdversaryRate: s.gen.opts.AdversaryRate,
	}, s.world)
}

// options returns arena a's world options.
func (s *arenaSweep) options(a int) arena.Options {
	o := s.world
	o.Seed = sim.Mix64(s.gen.opts.Seed ^ sim.Mix64(uint64(a)+0x7fb5d329728ea185))
	o.Protocol = arenaProtocol(s.gen.opts.Protocol, a)
	return o
}

// run synthesizes and executes arena a of a totalDeals population.
// Both the sweep and the replay path go through here, so a flagged deal
// is guaranteed to replay inside the identical world. A non-nil metrics
// registry receives the arena's substrate and interference counters.
func (s *arenaSweep) run(a, totalDeals int, metrics *obs.Registry) (*arena.Result, error) {
	count := min(s.ao.DealsPerArena, totalDeals-a*s.ao.DealsPerArena)
	pop, err := s.population(a, count)
	if err != nil {
		return nil, err
	}
	o := s.options(a)
	o.Metrics = metrics
	return arena.Run(o, pop)
}

// sweepArenas executes an arena-mode sweep: ceil(Deals/DealsPerArena)
// shared worlds across the worker pool, folded into one report in arena
// order. Each arena is a deterministic single-threaded simulation, so
// the report never depends on the worker count.
func sweepArenas(opts Options) (*Report, error) {
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		return nil, err
	}
	s, err := gen.resolveArena(*opts.Arena)
	if err != nil {
		return nil, err
	}
	nArenas := (opts.Deals + s.ao.DealsPerArena - 1) / s.ao.DealsPerArena
	stages := opts.Obs.stages()
	results := make([]*arena.Result, nArenas)
	var shards []*obs.Registry
	if opts.Obs.metrics() != nil {
		shards = make([]*obs.Registry, nArenas)
		for a := range shards {
			shards[a] = obs.NewRegistry()
		}
	}
	stopRun := stages.Start("run")
	runErr := Pool{Workers: opts.Workers}.Map(nArenas, func(a int) error {
		var reg *obs.Registry
		if shards != nil {
			reg = shards[a]
		}
		res, err := s.run(a, opts.Deals, reg)
		if err != nil {
			return err
		}
		results[a] = res
		return nil
	})
	stopRun()
	if runErr != nil {
		return nil, runErr
	}
	for _, shard := range shards {
		opts.Obs.metrics().Merge(shard)
	}

	stopAgg := stages.Start("aggregate")
	defer stopAgg()
	agg := NewAggregator()
	feesOn := gen.opts.Fees != nil
	if f := gen.opts.Fees; f != nil {
		agg.EnableFees(f.BaseFee, f.TipBudget)
	}
	agg.EnableArena(s.ao.Chains, s.world)
	agg.EnableObs(opts.Obs.metrics(), opts.Obs.flight())
	for a, res := range results {
		proto := arenaProtocol(gen.opts.Protocol, a)
		for _, out := range res.Outcomes {
			agg.Add(arenaRecord(a*s.ao.DealsPerArena+out.Index, proto, out, feesOn))
		}
		agg.AddArena(res)
	}
	return agg.Report(), nil
}

// ReplayArenaDeal re-runs the arena containing population index under
// the same options a sweep used and returns that deal's outcome. The
// arena is a pure function of (options, arena index), so the replay is
// bit-identical to the run that flagged the deal.
func ReplayArenaDeal(opts Options, index int) (*arena.DealOutcome, error) {
	if opts.Arena == nil {
		return nil, fmt.Errorf("fleet: ReplayArenaDeal without arena options")
	}
	if err := inPopulation(index, opts.Deals); err != nil {
		return nil, err
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		return nil, err
	}
	s, err := gen.resolveArena(*opts.Arena)
	if err != nil {
		return nil, err
	}
	a := index / s.ao.DealsPerArena
	res, err := s.run(a, opts.Deals, nil)
	if err != nil {
		return nil, err
	}
	out := res.Outcomes[index-a*s.ao.DealsPerArena]
	return &out, nil
}

// arenaRecord converts one arena deal outcome into the fleet's
// aggregation currency. Index is population-global so a flagged deal
// maps straight back to (arena, deal) for replay; gas is the deal's
// label-attributed share of the shared chains.
func arenaRecord(globalIndex int, protocol string, out arena.DealOutcome, feesOn bool) Record {
	rec := newRecord(Record{
		Index:        globalIndex,
		Seed:         out.Seed,
		Shape:        out.Shape,
		Protocol:     protocol,
		Adversaries:  out.Adversaries,
		Sequenceable: out.Sequenceable,
	}, out.Spec, out.Result)
	if feesOn {
		// Per-deal fee attribution only; world totals, samples, and
		// race counters fold once per arena from the arena result.
		rec.Fee = &FeeRecord{DealFees: out.Fees}
	}
	return rec
}
