package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xdeal/internal/fleet"
)

// rep is one measured repetition of a workload: its sweeps, in order.
type rep struct {
	wall, cpu float64 // seconds: host wall time, process user+sys CPU
	alloc     uint64  // heap bytes allocated
	gcCycles  uint64
	gcCPU     float64   // runtime-estimated GC CPU seconds
	busyCPU   float64   // runtime-estimated non-idle CPU seconds
	peakRSS   []float64 // MiB, each sweep's own peak
	hash      string    // over every sweep's report, in sweep order
	reports   []*fleet.Report
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

type runtimeReading struct {
	alloc, gcCycles        uint64
	gcCPU, totalCPU, idleC float64
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeReading{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		idleC:    s[4].Value.Float64(),
	}
}

// processCPU returns user+sys CPU seconds of this process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS returns unused heap to the OS and restarts the kernel's
// peak-RSS count (VmHWM) from the current resident set, so the next
// reading covers one sweep only. Where /proc/self/clear_refs is not
// writable, peakRSSMB reads the peak of the whole process instead.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set since the last reset, in MiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureRep runs the workload's sweeps once and records their cost,
// profiling them into prof when that is non-nil. Before each sweep the
// heap is collected and returned to the OS, untimed, so every sweep
// starts from the same state and its memory peak is its own.
func measureRep(w workload, seed uint64, obs *fleet.ObsOptions, prof *bytes.Buffer) (rep, error) {
	var r rep
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return rep{}, fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	for _, s := range w.sweepSeeds(seed) {
		resetPeakRSS()
		rt0, cpu0, t0 := readRuntime(), processCPU(), time.Now()
		report, err := fleet.Sweep(w.options(s, obs))
		wall := time.Since(t0).Seconds()
		cpu1, rt1 := processCPU(), readRuntime()
		if err != nil {
			return rep{}, fmt.Errorf("%s sweep (seed %d): %w", w.name, s, err)
		}
		r.reports = append(r.reports, report)
		r.wall += wall
		r.cpu += cpu1 - cpu0
		r.alloc += rt1.alloc - rt0.alloc
		r.gcCycles += rt1.gcCycles - rt0.gcCycles
		r.gcCPU += rt1.gcCPU - rt0.gcCPU
		r.busyCPU += (rt1.totalCPU - rt1.idleC) - (rt0.totalCPU - rt0.idleC)
		r.peakRSS = append(r.peakRSS, peakRSSMB())
	}
	h := sha256.New()
	for _, report := range r.reports {
		if err := report.WriteJSON(h); err != nil {
			return rep{}, fmt.Errorf("report json: %w", err)
		}
	}
	r.hash = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// measureReps repeats the untraced sweep at least once, and again while
// another typical repetition still fits in budget seconds.
func measureReps(w workload, seed uint64, budget float64) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for {
		r, err := measureRep(w, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		typical := median(field(reps, func(r rep) float64 { return r.wall }))
		if time.Since(start).Seconds()+typical > budget {
			return reps, nil
		}
	}
}

// stealTicks returns the machine's cumulative steal time from
// /proc/stat (hypervisor time taken from this guest's CPUs), in clock
// ticks, and false where it is unavailable.
func stealTicks() (uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseUint(f[8], 10, 64)
	return n, err == nil
}

// measureSetup times generator construction plus synthesis of the whole
// population, repeated for about budget seconds (at least 5 times), and
// returns the median.
func measureSetup(w workload, seed uint64, budget float64) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < 5 || time.Since(start).Seconds() < budget {
		t0 := time.Now()
		if err := w.populate(seed); err != nil {
			return 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// failedDeals counts deals with a build error or a Property 1–3 flag
// that is not annotated synchrony-broken (a DoS outage longer than Δ,
// the paper's stated caveat). Flags dropped past a report's cap count as
// one failed deal each.
func failedDeals(reports []*fleet.Report) int {
	n := 0
	for _, r := range reports {
		failed := make(map[int]bool)
		for _, v := range r.Violations {
			if v.Property != "error" && strings.Contains(v.Detail, "[synchrony-broken:") {
				continue
			}
			failed[v.Index] = true
		}
		n += len(failed) + r.ViolationsTruncated
	}
	return n
}

// decisionStats are the reports' simulated latency and cost figures:
// the mean decision latency over every decided deal, and the median
// over sweeps of each sweep's percentiles (the sweep's own value when
// there is one).
type decisionStats struct {
	meanDelta, p50Delta, p90Delta, gasP90 float64
}

func reportStats(reports []*fleet.Report) decisionStats {
	var sum, n float64
	var p50, p90, gas []float64
	for _, r := range reports {
		sum += r.DeltaTime.Mean * float64(r.DeltaTime.Count)
		n += float64(r.DeltaTime.Count)
		p50 = append(p50, r.DeltaTime.P50)
		p90 = append(p90, r.DeltaTime.P90)
		gas = append(gas, r.Gas.P90)
	}
	return decisionStats{meanDelta: ratio(sum, n), p50Delta: median(p50), p90Delta: median(p90), gasP90: median(gas)}
}

// checkReports verifies each sweep's report is whole: every deal ran,
// and decision latency and gas were observed.
func checkReports(w workload, reports []*fleet.Report) error {
	for k, r := range reports {
		if r.Total.Runs != w.deals {
			return fmt.Errorf("sweep %d report covers %d deals, want %d", k, r.Total.Runs, w.deals)
		}
		if r.DeltaTime.Count == 0 || r.Gas.Count == 0 || r.DeltaTime.Mean <= 0 || r.DeltaTime.P90 <= 0 || r.Gas.P90 <= 0 {
			return fmt.Errorf("sweep %d report lacks positive decision latency or gas figures", k)
		}
	}
	return nil
}

func field(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
