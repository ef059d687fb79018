package resilience_test

import (
	"context"
	"testing"
	"time"

	"syrep/internal/obs"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/verify"
)

// spanNames collects the distinct names of the recorded spans.
func spanNames(rec *obs.Recorder) map[string]int {
	out := make(map[string]int)
	for _, s := range rec.Spans() {
		out[s.Name]++
	}
	return out
}

// knownStages is the set of legal span names: every fault point plus the
// entry-point total.
func knownStages() map[string]bool {
	out := map[string]bool{obs.SpanTotal: true}
	for _, st := range resilience.FaultPoints() {
		out[string(st)] = true
	}
	return out
}

// TestSynthesizeObserved: an observed Combined run on the paper's running
// example emits a total span enclosing every stage span, and the counters
// are consistent with the work the pipeline must have done.
func TestSynthesizeObserved(t *testing.T) {
	rec := &obs.Recorder{}
	o := obs.New(rec)
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r, _, err := resilience.Synthesize(context.Background(), n, d, 2,
		resilience.Options{Strategy: resilience.Combined, Obs: o})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !verify.Resilient(r, 2) {
		t.Fatal("routing not 2-resilient")
	}

	names := spanNames(rec)
	legal := knownStages()
	for name := range names {
		if !legal[name] {
			t.Errorf("unknown span name %q", name)
		}
	}
	if names[obs.SpanTotal] != 1 {
		t.Errorf("total spans = %d, want 1", names[obs.SpanTotal])
	}
	if names[string(resilience.StageHeuristic)] == 0 {
		t.Error("no heuristic span recorded")
	}
	if names[string(resilience.StageVerify)] == 0 {
		t.Error("no verify span recorded")
	}

	snap := o.Snapshot()
	// Stage spans nest inside the total span, so their summed wall time can
	// never exceed it.
	total := snap.StageDuration(obs.SpanTotal)
	if total <= 0 {
		t.Fatalf("total duration = %v", total)
	}
	var stages time.Duration
	for name, st := range snap.Stages {
		if name != obs.SpanTotal {
			stages += st.Duration()
		}
	}
	if stages > total {
		t.Errorf("stage durations sum to %v, exceeding total %v", stages, total)
	}
	if snap.Counter(obs.VerifyScenarios) == 0 || snap.Counter(obs.VerifyTraces) == 0 {
		t.Error("verification ran but counted no scenarios/traces")
	}
}

// TestRepairObserved: repairing the paper's non-2-resilient routing drives
// the verify, repair, and BDD counters, and the repair iteration count
// matches the holes actually punched.
func TestRepairObserved(t *testing.T) {
	rec := &obs.Recorder{}
	o := obs.New(rec)
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	out, err := resilience.Repair(context.Background(), r, 2, resilience.Options{Obs: o})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if out.AlreadyResilient {
		t.Fatal("Figure 1b routing should need repair")
	}

	snap := o.Snapshot()
	if got := snap.Counter(obs.RepairIterations); got < 1 {
		t.Errorf("repair iterations = %d, want >= 1", got)
	}
	if got := snap.Counter(obs.RepairHolesPunched); got < int64(out.Removed) {
		t.Errorf("holes punched counter = %d, below outcome.Removed = %d", got, out.Removed)
	}
	if got := snap.Counter(obs.RepairCheckRounds); got < 1 {
		t.Errorf("check rounds = %d, want >= 1", got)
	}
	// Figure 1 has 29 scenarios with |F| <= 2; the all-up one is always
	// encoded.
	if got := snap.Counter(obs.RepairScenariosEncoded); got < 1 || got > 29 {
		t.Errorf("scenarios encoded = %d, want 1..29", got)
	}
	if snap.Counter(obs.BDDMkCalls) == 0 {
		t.Error("repair solved a BDD instance but mk counted nothing")
	}
	if snap.Gauge(obs.BDDPeakNodes) == 0 {
		t.Error("peak node gauge never rose")
	}
	if snap.Counter(obs.VerifyFailing) == 0 {
		t.Error("the broken routing produced no counted failing deliveries")
	}
	names := spanNames(rec)
	if names[obs.SpanTotal] != 1 {
		t.Errorf("total spans = %d, want 1", names[obs.SpanTotal])
	}
	if names[string(resilience.StageVerify)] == 0 || names[string(resilience.StageRepair)] == 0 {
		t.Errorf("missing verify/repair spans: %v", names)
	}
}

// TestUnobservedRunStaysClean: without an observer the pipeline behaves
// identically and nothing panics on the nil taps (the production default).
func TestUnobservedRunStaysClean(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r, _, err := resilience.Synthesize(context.Background(), n, d, 2,
		resilience.Options{Strategy: resilience.Baseline})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !verify.Resilient(r, 2) {
		t.Fatal("routing not 2-resilient")
	}
}

// TestBaselineObservedCountsSynth: the Baseline strategy runs from-scratch
// BDD synthesis, so an observed run must show a synth span and BDD traffic.
func TestBaselineObservedCountsSynth(t *testing.T) {
	rec := &obs.Recorder{}
	o := obs.New(rec)
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	if _, _, err := resilience.Synthesize(context.Background(), n, d, 2,
		resilience.Options{Strategy: resilience.Baseline, Obs: o}); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if spanNames(rec)[string(resilience.StageSynth)] == 0 {
		t.Error("no synth span recorded")
	}
	snap := o.Snapshot()
	if snap.Counter(obs.BDDMkCalls) == 0 || snap.Counter(obs.BDDNodesAllocated) == 0 {
		t.Error("baseline synthesis counted no BDD work")
	}
}
