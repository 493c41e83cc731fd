package fleet

import (
	"fmt"

	"xdeal/internal/engine"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// ObsOptions attaches the observability layer to a sweep. Every field
// is optional (nil disables that instrument), and all of it is
// strictly passive: a sweep's Report is byte-identical with ObsOptions
// set or not, on the same seed. Only the instruments' own outputs —
// the metrics snapshot, the flight-record JSONL, the stage timings —
// differ, and of those only the stage timings are machine-local.
type ObsOptions struct {
	// Metrics receives every world's (or arena substrate's) counters,
	// merged in index order. Merges are commutative, so the final
	// snapshot is identical for any worker count.
	Metrics *obs.Registry
	// Flight receives structured events: one per property violation or
	// errored run, with the offending deal's index and seed — the
	// evidence file a violation dump carries next to the replay seed.
	Flight *obs.Recorder
	// Stages accumulates wall-clock time per sweep stage (generate /
	// run / aggregate). Wall-clock readings never reach the report.
	Stages *obs.StageTimer
}

// metrics returns the registry, nil-safe on a nil ObsOptions.
func (ob *ObsOptions) metrics() *obs.Registry {
	if ob == nil {
		return nil
	}
	return ob.Metrics
}

// flight returns the recorder, nil-safe on a nil ObsOptions.
func (ob *ObsOptions) flight() *obs.Recorder {
	if ob == nil {
		return nil
	}
	return ob.Flight
}

// stages returns the stage timer, nil-safe on a nil ObsOptions.
func (ob *ObsOptions) stages() *obs.StageTimer {
	if ob == nil {
		return nil
	}
	return ob.Stages
}

// PhaseSpans is one deal's lifecycle timing, each span in Δ units of
// the deal's own delta: how long the deposits took to land (escrow),
// the transfers to clear (transfer), the validations to finish
// (validation), and the decision to land after that (decision), plus
// the whole start→decision interval (total). A phase whose milestone
// never completed is left zero and skipped by aggregation.
type PhaseSpans struct {
	Escrow     float64 `json:"escrow,omitempty"`
	Transfer   float64 `json:"transfer,omitempty"`
	Validation float64 `json:"validation,omitempty"`
	Decision   float64 `json:"decision,omitempty"`
	Total      float64 `json:"total,omitempty"`
}

// newPhaseSpans derives spans from the engine's phase milestones. Each
// span runs from the previous completed milestone (the deal start when
// none), so a skipped phase never inflates its successor.
func newPhaseSpans(p engine.PhaseTimes, delta sim.Duration) *PhaseSpans {
	if delta == 0 {
		return nil
	}
	d := float64(delta)
	var s PhaseSpans
	prev := p.Start
	span := func(end sim.Time) float64 {
		if end == 0 {
			return 0
		}
		v := float64(end-prev) / d
		prev = end
		return v
	}
	s.Escrow = span(p.EscrowEnd)
	s.Transfer = span(p.TransferEnd)
	s.Validation = span(p.ValidationEnd)
	s.Decision = span(p.DecisionEnd)
	if p.DecisionEnd != 0 {
		s.Total = float64(p.DecisionEnd-p.Start) / d
	}
	if s == (PhaseSpans{}) {
		return nil
	}
	return &s
}

// PhaseDist is one phase's latency distribution within a protocol.
type PhaseDist struct {
	Phase string `json:"phase"`
	obs.Dist
}

// ProtocolPhases is one protocol's phase-latency table.
type ProtocolPhases struct {
	Protocol string      `json:"protocol"`
	Phases   []PhaseDist `json:"phases"`
}

// PhasesBlock localizes decision latency: per-protocol distributions
// (in Δ units) of each lifecycle phase, in fixed phase order. Like
// every report block it is a pure function of the folded records.
type PhasesBlock struct {
	Protocols []ProtocolPhases `json:"protocols"`
}

// phaseAgg folds one protocol's spans in constant memory.
type phaseAgg struct {
	escrow, transfer, validation, decision, total obs.Sketch
}

func (p *phaseAgg) add(s *PhaseSpans) {
	if s.Escrow != 0 {
		p.escrow.Add(s.Escrow)
	}
	if s.Transfer != 0 {
		p.transfer.Add(s.Transfer)
	}
	if s.Validation != 0 {
		p.validation.Add(s.Validation)
	}
	if s.Decision != 0 {
		p.decision.Add(s.Decision)
	}
	if s.Total != 0 {
		p.total.Add(s.Total)
	}
}

// phases finalizes the protocol's table, skipping phases no deal
// completed.
func (p *phaseAgg) phases() []PhaseDist {
	var out []PhaseDist
	for _, ph := range []struct {
		name string
		s    *obs.Sketch
	}{
		{"escrow", &p.escrow},
		{"transfer", &p.transfer},
		{"validation", &p.validation},
		{"decision", &p.decision},
		{"total", &p.total},
	} {
		if ph.s.Count() == 0 {
			continue
		}
		out = append(out, PhaseDist{Phase: ph.name, Dist: ph.s.Dist()})
	}
	return out
}

// recordFlight emits one deal's flight-recorder evidence: a deal event
// carrying its identity, then one event per violation or error (p3
// marks a strong-liveness Property 3 flag). Only flagged deals record,
// so a sweep's ring is violations end to end, not a sliding window of
// healthy runs.
func recordFlight(rec *obs.Recorder, r Record, p3 bool) {
	if rec == nil {
		return
	}
	flagged := len(r.SafetyViolations)+len(r.LivenessViolations) > 0 || p3 || r.Err != ""
	if !flagged {
		return
	}
	rec.Record(r.EndedAt, "fleet", "deal",
		fmt.Sprintf("index=%d seed=%d spec=%s shape=%s protocol=%s adversaries=%d committed=%t aborted=%t",
			r.Index, r.Seed, r.SpecID, r.Shape, r.Protocol, r.Adversaries, r.Committed, r.Aborted))
	for _, v := range r.SafetyViolations {
		rec.Record(r.EndedAt, "fleet", "violation",
			fmt.Sprintf("index=%d seed=%d property=safety(P1) %s", r.Index, r.Seed, v))
	}
	for _, v := range r.LivenessViolations {
		rec.Record(r.EndedAt, "fleet", "violation",
			fmt.Sprintf("index=%d seed=%d property=liveness(P2) %s", r.Index, r.Seed, v))
	}
	if p3 {
		rec.Record(r.EndedAt, "fleet", "violation",
			fmt.Sprintf("index=%d seed=%d property=strong-liveness(P3) all parties compliant yet the deal did not commit", r.Index, r.Seed))
	}
	if r.Err != "" {
		rec.Record(r.EndedAt, "fleet", "error",
			fmt.Sprintf("index=%d seed=%d %s", r.Index, r.Seed, r.Err))
	}
	recordFlightCrit(rec, r)
}
