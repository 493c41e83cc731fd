package main

import (
	"bytes"
	"fmt"
	"time"

	"xdeal/internal/arena"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// tracedSweep is the workload's sweep run once with fleet's
// observability layer attached (metrics registry, flight recorder, stage
// timer) under this process's CPU profiler.
type tracedSweep struct {
	rep     rep
	metrics *obs.Registry
	stages  *obs.StageTimer
	profile []byte // gzipped pprof CPU profile
}

func runTracedSweep(w workload, seed uint64) (tracedSweep, error) {
	t := tracedSweep{metrics: obs.NewRegistry(), stages: obs.NewStageTimer()}
	ob := &fleet.ObsOptions{Metrics: t.metrics, Flight: obs.NewRecorder(1024), Stages: t.stages}
	var prof bytes.Buffer
	r, err := measureRep(w, seed, ob, &prof)
	if err != nil {
		return t, err
	}
	t.rep, t.profile = r, prof.Bytes()
	return t, nil
}

// layerPass is the benchmark's own decomposition of a workload: it
// calls each layer's public entry point directly, records a span around
// every call, and reads the counters the layer exposes.
type layerPass struct {
	spans   *spanLog
	wall    float64 // the whole pass
	workers int
	worlds  int

	committed int // deals whose every escrow committed

	// Isolated worlds only: scheduler events, chain receipts (all and
	// error-free), and gas-metered contract operations.
	steps, receipts, receiptsOK, sigVerifies, writes uint64

	// Worlds larger than costGrowthBase only: per-deal arena.Run
	// seconds at the workload's world size and at costGrowthBase deals.
	perDealFull, perDealBase float64
}

// costGrowthBase is the smaller world arena.cost_growth compares with.
const costGrowthBase = 100

func runLayerPass(w workload, seed uint64) (*layerPass, error) {
	lp := &layerPass{spans: newSpanLog(), workers: w.poolSize()}
	root, end := lp.spans.begin("layers", -1, -1)
	t0 := time.Now()
	for k, s := range w.sweepSeeds(seed) {
		gen, err := fleet.NewGenerator(w.genOptions(s))
		if err != nil {
			return nil, err
		}
		if w.arena == nil {
			lp.isolated(gen, w, k*w.deals, root)
		} else if err := lp.arenas(gen, w, s, k*w.arenas(), root); err != nil {
			return nil, err
		}
	}
	lp.wall = time.Since(t0).Seconds()
	end()
	if w.arena != nil && w.arena.DealsPerArena > costGrowthBase {
		if err := lp.costGrowth(w, seed, root); err != nil {
			return nil, err
		}
	}
	return lp, nil
}

// isolated runs every deal through engine.Build, World.Start plus the
// scheduler drain, and World.Evaluate. Jobs are synthesized serially in
// chunks and each chunk runs across fleet.Pool, the shape fleet.Stream
// uses, so the pool's idle time at chunk barriers shows in busy ratio.
func (lp *layerPass) isolated(gen *fleet.Generator, w workload, idBase, root int) {
	pool := fleet.Pool{Workers: lp.workers}
	chunk := max(pool.Size(w.deals)*8, 64)
	type dealCounts struct {
		committed                                        bool
		steps, receipts, receiptsOK, sigVerifies, writes uint64
	}
	counts := make([]dealCounts, w.deals)
	for lo := 0; lo < w.deals; lo += chunk {
		hi := min(lo+chunk, w.deals)
		jobs := make([]fleet.Job, 0, hi-lo)
		lp.spans.around("fleet.generate", idBase+lo, root, func() {
			for i := lo; i < hi; i++ {
				jobs = append(jobs, gen.Job(i))
			}
		})
		_ = pool.Map(len(jobs), func(k int) error {
			job := jobs[k]
			id := idBase + job.Index
			d, end := lp.spans.begin("deal", id, root)
			defer end()
			var world *engine.World
			var err error
			lp.spans.around("engine.build", id, d, func() {
				world, err = engine.Build(job.Spec, job.Opts)
			})
			if err != nil {
				return nil // an errored build is a population observation
			}
			lp.spans.around("engine.run", id, d, func() {
				world.Start()
				world.Sched.Run()
			})
			var res *engine.Result
			lp.spans.around("engine.evaluate", id, d, func() {
				res = world.Evaluate()
			})
			c := dealCounts{
				committed:   res.AllCommitted,
				steps:       world.Sched.Steps(),
				sigVerifies: res.Gas.Count(gas.OpSigVerify),
				writes:      res.Gas.Count(gas.OpWrite),
			}
			for _, ch := range world.Chains {
				for _, rc := range ch.Receipts() {
					c.receipts++
					if rc.Err == nil {
						c.receiptsOK++
					}
				}
			}
			counts[job.Index] = c
			return nil
		})
	}
	for _, c := range counts {
		if c.committed {
			lp.committed++
		}
		lp.steps += c.steps
		lp.receipts += c.receipts
		lp.receiptsOK += c.receiptsOK
		lp.sigVerifies += c.sigVerifies
		lp.writes += c.writes
	}
}

// arenaOptions mirrors the per-world options fleet's arena sweep
// derives: the world seed from the master seed and world index, and
// "mixed" alternating timelock and CBC worlds. Anything left zero takes
// arena's own defaults, which match fleet's.
func arenaOptions(w workload, seed uint64, a int) arena.Options {
	o := arena.Options{
		Seed:      sim.Mix64(seed ^ sim.Mix64(uint64(a)+0x7fb5d329728ea185)),
		Protocol:  "timelock",
		FeeMarket: w.fees,
		Bundles:   w.arena.Bundles,
		Hedge:     w.arena.Hedge,
	}
	if a%2 == 1 {
		o.Protocol = "cbc"
	}
	return o
}

// arenas synthesizes each world's population and runs it through
// arena.Run, worlds spread across fleet.Pool.
func (lp *layerPass) arenas(gen *fleet.Generator, w workload, seed uint64, idBase, root int) error {
	lp.worlds += w.arenas()
	committed := make([]int, w.arenas())
	err := fleet.Pool{Workers: lp.workers}.Map(w.arenas(), func(a int) error {
		world, end := lp.spans.begin("world", idBase+a, root)
		defer end()
		var pop []arena.DealSetup
		var err error
		lp.spans.around("fleet.generate", idBase+a, world, func() {
			pop, err = gen.ArenaPopulation(a, w.arenaSize(a), *w.arena)
		})
		if err != nil {
			return err
		}
		var res *arena.Result
		lp.spans.around("arena.run", idBase+a, world, func() {
			res, err = arena.Run(arenaOptions(w, seed, a), pop)
		})
		if err != nil {
			return err
		}
		for _, out := range res.Outcomes {
			if out.Result.AllCommitted {
				committed[a]++
			}
		}
		return nil
	})
	for _, c := range committed {
		lp.committed += c
	}
	return err
}

// costGrowth runs one costGrowthBase-deal world per full world, each
// drawn from the same sweep seed and world index, for arena.cost_growth:
// per-deal arena.Run time at full size over per-deal time at the base
// size.
func (lp *layerPass) costGrowth(w workload, seed uint64, root int) error {
	for k, s := range w.sweepSeeds(seed) {
		gen, err := fleet.NewGenerator(w.genOptions(s))
		if err != nil {
			return err
		}
		for a := 0; a < w.arenas(); a++ {
			pop, err := gen.ArenaPopulation(a, costGrowthBase, *w.arena)
			if err != nil {
				return err
			}
			lp.spans.around("arena.run_base", k*w.arenas()+a, root, func() {
				_, err = arena.Run(arenaOptions(w, s, a), pop)
			})
			if err != nil {
				return err
			}
		}
	}
	layers := lp.spans.layers()
	lp.perDealFull = layers["arena.run"].Self / float64(w.total())
	lp.perDealBase = layers["arena.run_base"].Self / float64(lp.worlds*costGrowthBase)
	return nil
}

// counter and gauge readers over a metrics registry snapshot.
type snapshot map[string]obs.Metric

func snapshotOf(reg *obs.Registry) snapshot {
	s := make(snapshot)
	for _, m := range reg.Snapshot().Metrics {
		s[m.Name] = m
	}
	return s
}

// histP90 returns the upper bucket edge holding the 90th percentile of
// a histogram (the last edge when it falls in the overflow).
func (s snapshot) histP90(name string) float64 {
	m := s[name]
	if m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	want := 0.9 * float64(m.Count)
	var cum uint64
	for _, b := range m.Buckets {
		cum += b.N
		if float64(cum) >= want {
			return b.LE
		}
	}
	return m.Buckets[len(m.Buckets)-1].LE
}

// waitShares averages each decision-latency cause bucket's per-deal
// share over every decided deal in the reports' critical-path blocks.
func waitShares(reports []*fleet.Report) map[string]float64 {
	out := map[string]float64{}
	deals := 0
	for _, r := range reports {
		if r.CriticalPath == nil {
			continue
		}
		for _, sl := range r.CriticalPath.Slices {
			deals += sl.Deals
			for _, b := range sl.Buckets {
				out[b.Bucket] += b.MeanShare * float64(sl.Deals)
			}
		}
	}
	for k := range out {
		out[k] = ratio(out[k], float64(deals))
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer assembles every per-layer metric. Metrics that a workload's
// shape makes unmeasurable from outside read 0 and are named, with the
// reason, in notMeasured.
func perLayer(w workload, reps []rep, tr tracedSweep, lp *layerPass, shares map[string]float64) (map[string]metric, map[string]string) {
	snap := snapshotOf(tr.metrics)
	layers := lp.spans.layers()
	deals := float64(w.total())
	untracedWall := median(field(reps, func(r rep) float64 { return r.wall }))
	var gcCPU, busyCPU float64
	for _, r := range reps {
		gcCPU += r.gcCPU
		busyCPU += r.busyCPU
	}
	var busy float64
	for _, name := range []string{"deal", "world"} {
		busy += layers[name].Total
	}
	waits := waitShares(tr.rep.reports)

	m := map[string]metric{
		"fleet.generate_s":               {layers["fleet.generate"].Self, "s"},
		"fleet.pool_busy_ratio":          {ratio(busy, float64(lp.workers)*lp.wall), "ratio"},
		"fleet.aggregate_s":              {tr.stages.Seconds("aggregate"), "s"},
		"engine.build_s":                 {layers["engine.build"].Self / deals, "s"},
		"engine.run_s":                   {layers["engine.run"].Self / deals, "s"},
		"engine.evaluate_s":              {layers["engine.evaluate"].Self / deals, "s"},
		"arena.run_s":                    {ratio(layers["arena.run"].Self, float64(lp.worlds)), "s"},
		"arena.cost_growth":              {ratio(lp.perDealFull, lp.perDealBase), "ratio"},
		"arena.bundle_win_ratio":         {ratio(float64(snap["arena.bundle_wins"].Count), float64(snap["arena.bundle_wins"].Count+snap["arena.bundle_defers"].Count)), "ratio"},
		"sim.events_per_deal":            {float64(lp.steps) / deals, "count"},
		"chain.blocks_per_deal":          {float64(snap["chain.blocks_sealed"].Count) / deals, "count"},
		"chain.txs_per_deal":             {float64(snap["chain.txs_included"].Count) / deals, "count"},
		"chain.tx_queue_delay_p90_ticks": {snap.histP90("chain.tx_queue_delay_ticks"), "ticks"},
		"chain.mempool_high":             {float64(snap["chain.mempool_high"].High), "count"},
		"chain.tx_ok_ratio":              {ratio(float64(lp.receiptsOK), float64(lp.receipts)), "ratio"},
		"contracts.sigverify_per_deal":   {float64(lp.sigVerifies) / deals, "count"},
		"contracts.writes_per_deal":      {float64(lp.writes) / deals, "count"},
		"hedge.binds_per_deal":           {float64(snap["hedge.binds"].Count) / deals, "count"},
		"wait.protocol_share":            {waits["protocol-wait"], "ratio"},
		"wait.block_queue_share":         {waits["block-queueing"], "ratio"},
		"wait.fee_share":                 {waits["fee-priced-out"], "ratio"},
		"wait.adversary_share":           {waits["adversary"], "ratio"},
		"runtime.gc_cpu_share":           {ratio(gcCPU, busyCPU), "ratio"},
		"runtime.gc_cycles_per_kdeal":    {median(field(reps, func(r rep) float64 { return float64(r.gcCycles) })) / deals * 1000, "count"},
		"trace.overhead_ratio":           {ratio(tr.rep.wall, untracedWall), "ratio"},
	}
	for _, layer := range cpuLayers {
		m["cpu."+layer] = metric{shares[layer], "ratio"}
	}

	notMeasured := map[string]string{}
	if w.arena != nil {
		for _, name := range []string{"engine.build_s", "engine.run_s", "engine.evaluate_s", "sim.events_per_deal", "chain.tx_ok_ratio", "contracts.sigverify_per_deal", "contracts.writes_per_deal"} {
			notMeasured[name] = "arena.Run builds, drives and evaluates the shared world internally; its worlds, scheduler and chains are not reachable from outside"
		}
	} else {
		notMeasured["arena.run_s"] = "no shared worlds in an isolated sweep"
	}
	if lp.perDealBase == 0 {
		notMeasured["arena.cost_growth"] = fmt.Sprintf("measured only on shared worlds larger than %d deals", costGrowthBase)
	}
	if !w.fees || w.arena == nil || !w.arena.Bundles {
		notMeasured["arena.bundle_win_ratio"] = "no bundle auctions in this workload"
	}
	if w.arena == nil || !w.arena.Hedge {
		notMeasured["hedge.binds_per_deal"] = "no hedge contracts in this workload"
	}
	return m, notMeasured
}

// layerCheck cross-checks the layer pass against the sweeps' reports:
// both ran the same seeded populations, so the same deals must commit.
func layerCheck(lp *layerPass, reports []*fleet.Report) error {
	committed := 0
	for _, r := range reports {
		committed += r.Total.Committed
	}
	if lp.committed != committed {
		return fmt.Errorf("layer pass committed %d deals, the sweep reports %d", lp.committed, committed)
	}
	return nil
}
