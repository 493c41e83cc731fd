package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdeal/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite the golden report fixtures")

// TestFlagValidationRejectsDegenerateSweeps: knobs that would silently
// produce a degenerate sweep (or a meaningless CI gate) must be
// rejected with exit 2 and a pointed message, not defaulted away.
func TestFlagValidationRejectsDegenerateSweeps(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr complaint
	}{
		{"negative-deals", []string{"-deals", "-1"}, "-deals must be non-negative"},
		{"zero-tip-budget", []string{"-feemarket", "-tip-budget", "0"}, "-tip-budget must be positive"},
		{"zero-arena-deals", []string{"-arena", "-arena-deals", "0"}, "-arena-deals must be positive"},
		{"negative-arena-deals", []string{"-arena", "-arena-deals", "-5"}, "-arena-deals must be positive"},
		{"zero-base-fee", []string{"-feemarket", "-base-fee", "0"}, "-base-fee must be positive"},
		{"zero-chains", []string{"-arena", "-chains", "0"}, "-chains must be positive"},
		{"negative-chains", []string{"-arena", "-chains", "-2"}, "-chains must be positive"},
		{"zero-volatility", []string{"-arena", "-volatility", "0"}, "-volatility must be positive"},
		{"negative-volatility", []string{"-arena", "-volatility", "-0.1"}, "-volatility must be positive"},
		{"negative-p99-delta-budget", []string{"-budget-p99-delta", "-1"}, "-budget-p99-delta must be non-negative"},
		{"negative-p99-gas-budget", []string{"-budget-p99-gas", "-1"}, "-budget-p99-gas must be non-negative"},
		{"negative-fee-budget", []string{"-feemarket", "-budget-fee-per-commit", "-1"}, "-budget-fee-per-commit must be non-negative"},
		{"negative-residual-budget", []string{"-arena", "-hedge", "-budget-residual-loss", "-1"}, "-budget-residual-loss must be non-negative"},
		{"negative-defer-budget", []string{"-arena", "-feemarket", "-bundles", "-budget-bundle-defer", "-1"}, "-budget-bundle-defer must be non-negative"},
		{"zero-hedge-collateral", []string{"-arena", "-hedge", "-hedge-collateral", "0"}, "-hedge-collateral must be positive"},
		{"negative-hedge-collateral", []string{"-arena", "-hedge", "-hedge-collateral", "-0.5"}, "-hedge-collateral must be positive"},
		{"hedge-without-arena", []string{"-hedge"}, "-hedge needs -arena"},
		{"zero-vol-window", []string{"-arena", "-hedge", "-premium-vol-window", "0"}, "-premium-vol-window must be positive"},
		{"residual-budget-without-hedge", []string{"-budget-residual-loss", "5"}, "-budget-residual-loss needs -hedge"},
		{"fee-budget-without-feemarket", []string{"-budget-fee-per-commit", "5"}, "-budget-fee-per-commit needs -feemarket"},
		{"bundles-without-feemarket", []string{"-arena", "-bundles"}, "-bundles needs -feemarket"},
		{"bundles-without-arena", []string{"-feemarket", "-bundles"}, "-bundles needs -arena"},
		{"zero-bundle-budget", []string{"-arena", "-feemarket", "-bundles", "-bundle-budget", "0"}, "-bundle-budget must be positive"},
		{"negative-bundle-budget", []string{"-arena", "-feemarket", "-bundles", "-bundle-budget", "-3"}, "invalid value"},
		{"defer-budget-without-bundles", []string{"-budget-bundle-defer", "0.5"}, "-budget-bundle-defer needs -bundles"},
		{"stray-argument", []string{"extra"}, "unexpected argument"},
		{"unknown-flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"explain-without-replay", []string{"-explain"}, "-explain needs -replay"},
		{"chrome-trace-without-replay", []string{"-chrome-trace", "t.json"}, "-chrome-trace needs -replay"},
		{"explain-with-arena", []string{"-arena", "-replay", "3", "-explain"}, "need an isolated replay"},
		{"chrome-trace-with-arena", []string{"-arena", "-replay", "3", "-chrome-trace", "t.json"}, "need an isolated replay"},
		{"replay-outside-population", []string{"-deals", "5", "-replay", "99999"}, "fleet: deal index 99999 outside population [0, 5)"},
		{"replay-with-metrics-json", []string{"-replay", "3", "-metrics-json", "m.json"}, "-metrics-json applies to sweeps"},
		{"replay-with-flight-record", []string{"-replay", "3", "-flight-record", "f.jsonl"}, "-flight-record applies to sweeps"},
		{"replay-with-cpuprofile", []string{"-replay", "3", "-cpuprofile", "cpu.pprof"}, "-cpuprofile applies to sweeps"},
		{"replay-with-memprofile", []string{"-replay", "3", "-memprofile", "mem.pprof"}, "-memprofile applies to sweeps"},
		{"replay-with-mutexprofile", []string{"-replay", "3", "-mutexprofile", "mutex.pprof"}, "-mutexprofile applies to sweeps"},
		{"replay-with-p99-delta-budget", []string{"-replay", "3", "-budget-p99-delta", "0.001"}, "-budget-p99-delta applies to sweeps"},
		{"replay-with-p99-gas-budget", []string{"-replay", "3", "-budget-p99-gas", "1"}, "-budget-p99-gas applies to sweeps"},
		{"replay-with-fee-budget", []string{"-feemarket", "-replay", "3", "-budget-fee-per-commit", "1"}, "-budget-fee-per-commit applies to sweeps"},
		{"replay-with-residual-budget", []string{"-arena", "-hedge", "-replay", "3", "-budget-residual-loss", "1"}, "-budget-residual-loss applies to sweeps"},
		{"replay-with-defer-budget", []string{"-arena", "-feemarket", "-bundles", "-replay", "3", "-budget-bundle-defer", "0.5"}, "-budget-bundle-defer applies to sweeps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run(%v) = %d, want exit 2\nstderr: %s", tc.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not explain the rejection (want %q)", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run still produced a report:\n%s", stdout.String())
			}
		})
	}
}

// goldenCheck runs the command and compares its stdout byte-for-byte
// against the committed fixture (regenerate with `go test -update`).
func goldenCheck(t *testing.T, fixture string, wantCode int, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != wantCode {
		t.Fatalf("run(%v) = %d, want %d\nstderr: %s", args, code, wantCode, stderr.String())
	}
	path := filepath.Join("testdata", fixture)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run `go test ./cmd/dealsweep -update` to create it): %v", path, err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("report diverged from the committed fixture %s.\n"+
			"If the change is intentional, regenerate with `go test ./cmd/dealsweep -update` and review the diff.\n--- got ---\n%s\n--- want ---\n%s",
			path, stdout.String(), string(want))
	}
}

// TestGoldenJSONReportIsolated pins the -json report schema for the
// default isolated sweep: a refactor that renames, drops, or reorders a
// field breaks this byte-identical fixture instead of silently changing
// the CI-gated JSON contract.
func TestGoldenJSONReportIsolated(t *testing.T) {
	goldenCheck(t, "golden_isolated.json", 0,
		"-deals", "30", "-seed", "5", "-workers", "4", "-json")
}

// TestGoldenJSONReportFeeIsolated pins the isolated fee-market path:
// per-record fee totals, race counters and tip samples folding into the
// ordering-games block.
func TestGoldenJSONReportFeeIsolated(t *testing.T) {
	goldenCheck(t, "golden_fee_isolated.json", 0,
		"-deals", "30", "-seed", "5", "-feemarket", "-workers", "4", "-json")
}

// TestGoldenTableReportArena pins the table rendering of a full arena
// sweep with baselines on: the latency-inflation row and the Fprint
// output of the interference, ordering-games, bundle-auctions and
// hedging blocks.
func TestGoldenTableReportArena(t *testing.T) {
	goldenCheck(t, "golden_arena_tables.txt", 0,
		"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
		"-seed", "7", "-feemarket", "-hedge", "-bundles", "-volatility", "0.05",
		"-workers", "4")
}

// TestGoldenJSONReportHedgedArena pins the full arena schema — the
// interference, ordering-games, and hedging blocks together.
func TestGoldenJSONReportHedgedArena(t *testing.T) {
	goldenCheck(t, "golden_hedged_arena.json", 0,
		"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
		"-seed", "7", "-feemarket", "-hedge", "-volatility", "0.05",
		"-no-baselines", "-workers", "4", "-json")
}

// TestGoldenJSONReportBundleArena pins the bundled arena schema — the
// bundle-auctions block (win/defer rates, exclusion counters, deadline
// slack by bid decile) alongside the interference and ordering-games
// blocks it rides with.
func TestGoldenJSONReportBundleArena(t *testing.T) {
	goldenCheck(t, "golden_bundle_arena.json", 0,
		"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
		"-seed", "7", "-feemarket", "-bundles", "-volatility", "0.05",
		"-no-baselines", "-workers", "4", "-json")
}

// TestReportIndependentOfWorkerCount: the golden runs again at a
// different pool size must produce the identical bytes (the fixture
// files double as cross-worker-count regression anchors).
func TestReportIndependentOfWorkerCount(t *testing.T) {
	render := func(workers string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
			"-seed", "7", "-feemarket", "-hedge", "-volatility", "0.05",
			"-no-baselines", "-workers", workers, "-json"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, stderr.String())
		}
		return stdout.String()
	}
	if render("1") != render("8") {
		t.Fatal("report depends on the worker count")
	}
}

// TestBudgetGates: for every -budget-* gate, an absurdly tight budget
// must trip it (exit 1) with that gate's breach message, and a generous
// one must pass (exit 0). The residual-loss sweep hedges at 0.5×
// collateral, so payouts absorb only half of every stranded deposit and
// a residual is guaranteed wherever sore losers kill deals (seed 7 at
// 35% adversaries strands plenty).
func TestBudgetGates(t *testing.T) {
	isolated := []string{"-deals", "40", "-seed", "7", "-workers", "4", "-json"}
	for _, tc := range []struct {
		name, flag, tight, generous, breach string
		base                                []string
	}{
		{"p99-delta", "-budget-p99-delta", "0.01", "1000", "p99 decision latency", isolated},
		{"p99-gas", "-budget-p99-gas", "1", "1e12", "p99 gas", isolated},
		{"fee-per-commit", "-budget-fee-per-commit", "0.5", "1e12", "fee per committed deal",
			append([]string{"-feemarket"}, isolated...)},
		{"residual-loss", "-budget-residual-loss", "0.5", "1e12", "residual sore-loser loss", []string{
			"-arena", "-deals", "60", "-arena-deals", "20", "-chains", "3",
			"-seed", "7", "-adversary-rate", "0.35", "-feemarket", "-hedge",
			"-hedge-collateral", "0.5", "-volatility", "0.05",
			"-no-baselines", "-workers", "4", "-json"}},
		{"bundle-defer", "-budget-bundle-defer", "0.0001", "0.99", "bundle defer rate", []string{
			"-arena", "-deals", "40", "-arena-deals", "20", "-chains", "2",
			"-seed", "7", "-adversary-rate", "0.4", "-feemarket", "-bundles",
			"-no-baselines", "-workers", "4", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := func(budget string) (int, string) {
				var stdout, stderr bytes.Buffer
				args := append(append([]string{}, tc.base...), tc.flag, budget)
				return run(args, &stdout, &stderr), stderr.String()
			}
			code, stderr := gate(tc.tight)
			if code != 1 {
				t.Fatalf("tight %s %s exited %d, want 1\nstderr: %s", tc.flag, tc.tight, code, stderr)
			}
			if !strings.Contains(stderr, "BUDGET BREACH: "+tc.breach) {
				t.Fatalf("no %q breach message: %s", tc.breach, stderr)
			}
			if code, stderr := gate(tc.generous); code != 0 {
				t.Fatalf("generous %s %s exited %d, want 0\nstderr: %s", tc.flag, tc.generous, code, stderr)
			}
		})
	}
}

// TestMetricsSnapshotFiles: -metrics-json writes a non-empty registry
// snapshot carrying the core chain counters the sweep promises (blocks
// sealed, mempool high-water, queue delays) plus the fleet totals, and
// every histogram's ascending buckets account for all its observations.
func TestMetricsSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-workers", "4", "-json",
		"-metrics-json", jsonPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("metrics JSON not written: %v", err)
	}
	var snap struct {
		Metrics []struct {
			Name    string `json:"name"`
			Kind    string `json:"kind"`
			Count   uint64 `json:"count"`
			Buckets []struct {
				LE float64 `json:"le"`
				N  uint64  `json:"n"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v\n%s", err, raw)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("metrics snapshot is empty")
	}
	have := make(map[string]string)
	for _, m := range snap.Metrics {
		have[m.Name] = m.Kind
	}
	for name, kind := range map[string]string{
		"chain.blocks_sealed":        "counter",
		"chain.mempool_high":         "gauge",
		"chain.tx_queue_delay_ticks": "histogram",
		"fleet.deals_run":            "counter",
	} {
		if have[name] != kind {
			t.Fatalf("metric %s: kind %q, want %q (snapshot: %s)", name, have[name], kind, raw)
		}
	}
	for _, m := range snap.Metrics {
		if m.Kind != "histogram" {
			continue
		}
		var n uint64
		for i, b := range m.Buckets {
			n += b.N
			if i > 0 && b.LE <= m.Buckets[i-1].LE {
				t.Fatalf("histogram %s: bucket edges not ascending: %+v", m.Name, m.Buckets)
			}
		}
		if m.Count == 0 || n != m.Count {
			t.Fatalf("histogram %s: buckets hold %d of %d observations", m.Name, n, m.Count)
		}
	}
}

// TestFlightRecordOnBudgetBreach: a failing sweep with -flight-record
// dumps a valid JSONL evidence file — a config event plus the breach —
// while a clean sweep leaves no file behind.
func TestFlightRecordOnBudgetBreach(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.jsonl")
	base := []string{"-deals", "20", "-seed", "5", "-workers", "4", "-json",
		"-flight-record", path}
	var stdout, stderr bytes.Buffer

	// An absurdly tight latency budget forces the failure path.
	code := run(append(base, "-budget-p99-delta", "0.0001"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("tight budget exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flight record") {
		t.Fatalf("stderr does not announce the flight record: %s", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight record not written: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("flight record too short (%d lines):\n%s", len(lines), raw)
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for i, line := range lines {
		var ev struct {
			Seq    uint64 `json:"seq"`
			At     int64  `json:"at"`
			Source string `json:"source"`
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if i > 0 && ev.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing at line %d: %d after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	if kinds["config"] == 0 {
		t.Fatalf("no config event in flight record: %v", kinds)
	}
	if kinds["budget-breach"] == 0 {
		t.Fatalf("no budget-breach event in flight record: %v", kinds)
	}

	// A clean run must not leave an evidence file.
	clean := filepath.Join(dir, "clean.jsonl")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-deals", "20", "-seed", "5", "-json",
		"-flight-record", clean}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean run exited %d\nstderr: %s", code, stderr.String())
	}
	if _, err := os.Stat(clean); !os.IsNotExist(err) {
		t.Fatalf("clean sweep wrote a flight record anyway (err=%v)", err)
	}
}

// TestProfilingFlagsWriteProfiles: -cpuprofile/-memprofile/-mutexprofile
// each produce a non-empty pprof file without disturbing the run.
func TestProfilingFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	mutex := filepath.Join(dir, "mutex.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-workers", "4", "-json",
		"-cpuprofile", cpu, "-memprofile", mem, "-mutexprofile", mutex}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem, mutex} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestObsFlagsDoNotChangeReport: the same sweep with every
// observability flag on must render the identical report bytes as the
// bare sweep — the instruments are passive by contract.
func TestObsFlagsDoNotChangeReport(t *testing.T) {
	dir := t.TempDir()
	render := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{
			"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
			"-seed", "7", "-feemarket", "-hedge", "-volatility", "0.05",
			"-no-baselines", "-workers", "4", "-json"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	bare := render()
	instrumented := render(
		"-metrics-json", filepath.Join(dir, "m.json"),
		"-flight-record", filepath.Join(dir, "f.jsonl"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-mutexprofile", filepath.Join(dir, "mutex.pprof"))
	if bare != instrumented {
		t.Fatal("observability flags changed the report output")
	}
}

// TestMetricsSnapshotIndependentOfWorkerCount: the merged registry
// snapshot must be byte-identical at any pool size — shard merges are
// commutative and the snapshot is name-sorted.
func TestMetricsSnapshotIndependentOfWorkerCount(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(workers string) string {
		path := filepath.Join(dir, "m"+workers+".json")
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-arena", "-deals", "24", "-arena-deals", "12", "-chains", "2",
			"-seed", "7", "-feemarket", "-bundles", "-volatility", "0.05",
			"-no-baselines", "-workers", workers, "-json",
			"-metrics-json", path}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if snapshot("1") != snapshot("8") {
		t.Fatal("metrics snapshot depends on the worker count")
	}
}

// TestReplayExplainPrintsCriticalPath: -replay -explain appends the
// annotated causal timeline and the latency-attribution table to the
// replay output, and the attribution shares sum to 100%.
func TestReplayExplainPrintsCriticalPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-replay", "3", "-explain"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"critical path (",
		"latency attribution (decision latency",
		"protocol-wait",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out)
		}
	}
}

// TestReplayChromeTraceWritesValidJSON: -replay -chrome-trace writes a
// parseable Chrome trace-event file with metadata, span, and flow
// events, and announces it on stderr.
func TestReplayChromeTraceWritesValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deal.trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-replay", "3", "-chrome-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "chrome trace") {
		t.Fatalf("stderr does not announce the chrome trace: %s", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, raw)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	kinds := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		kinds[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "s", "f"} {
		if kinds[ph] == 0 {
			t.Fatalf("chrome trace has no %q events (got %v)", ph, kinds)
		}
	}
	if kinds["s"] != kinds["f"] {
		t.Fatalf("unbalanced flow events: %d starts, %d finishes", kinds["s"], kinds["f"])
	}
}

// TestWriteViolationTrace: a failed sweep's evidence bundle includes
// the first flagged deal's causal trace next to the flight record. The
// protocols are sound, so the report is injected rather than produced
// by real flags; the traced deal itself replays for real.
func TestWriteViolationTrace(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.jsonl")
	gen := fleet.GenOptions{Seed: 5}
	rep := &fleet.Report{Violations: []fleet.Violation{{Index: 3, Seed: 5, Property: "safety (P1)"}}}
	var stderr bytes.Buffer
	writeViolationTrace(&stderr, gen, rep, flight)
	if !strings.Contains(stderr.String(), "causal trace of flagged deal 3") {
		t.Fatalf("stderr does not announce the violation trace: %s", stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "flight-deal3.trace.json"))
	if err != nil {
		t.Fatalf("violation trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("violation trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("violation trace has no events")
	}

	// Without a flight record there is nowhere to put the evidence.
	var quiet bytes.Buffer
	writeViolationTrace(&quiet, gen, rep, "")
	if quiet.Len() != 0 {
		t.Fatalf("violation trace written without a flight record: %s", quiet.String())
	}
}

// TestSerializeRoundsFlagRoundTrips: the round-gating ablation flag
// must parse, run clean, and survive into the replay command, so a
// violation flagged under -serialize-rounds replays under it too.
func TestSerializeRoundsFlagRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "2", "-seed", "5", "-serialize-rounds", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	gated := fleet.Options{Deals: 2, Gen: fleet.GenOptions{
		Seed: 5, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15,
		MaxParties: 6, SerializeRounds: true,
	}}
	if cmd := replayCommand(gated); !strings.Contains(cmd, "-serialize-rounds") {
		t.Fatalf("replay command %q drops -serialize-rounds", cmd)
	}
	gated.Gen.SerializeRounds = false
	if cmd := replayCommand(gated); strings.Contains(cmd, "-serialize-rounds") {
		t.Fatalf("default (pipelined) replay command %q claims -serialize-rounds", cmd)
	}
}
