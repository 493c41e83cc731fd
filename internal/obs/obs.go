// Package obs is the deterministic observability layer: a metrics
// registry (counters, gauges and log-bucket histograms with flat JSON
// snapshots), the Sketch/Dist distribution summary that the registry's
// histograms and every fleet report share, a bounded ring-buffer
// flight recorder (structured events, JSONL export), wall-clock stage
// timing, and profiling hooks.
//
// The layer is strictly passive. Sim-visible instruments (the registry,
// the flight recorder) observe simulation state without touching the
// scheduler or any RNG stream, so a sweep's reports are byte-identical
// with observability enabled or disabled. Instruments that do read
// ambient sources — the wall clock (StageTimer), the Go runtime
// (Profiles) — live only here: internal/obs is a sanctioned wrapper
// under the noclock analyzer, like internal/sim, and their readings
// feed machine-local stage breakdowns and profiles, never the
// deterministic reports.
//
// Every constructor accepts being skipped: methods on nil receivers are
// no-ops, so instrumented packages write `reg.Counter("x").Inc()`
// unconditionally and pay two nil checks when observability is off.
package obs
