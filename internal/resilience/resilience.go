// Package resilience is the anytime supervisor around SyRep's synthesis and
// repair pipelines. The paper's evaluation (Figure 7) is defined by timeouts
// and memouts, so the supervisor treats every run as an anytime computation:
//
//   - the overall deadline is split into per-stage budgets (reduce,
//     heuristic, verify, repair, expand) so that an early stage cannot starve
//     the endgame repair of time;
//   - node-limit exhaustion (bdd.ErrNodeLimit) triggers a retry-with-
//     escalation ladder: a bigger node budget with reordering enabled, then a
//     reduced-scope repair strategy;
//   - the best routing seen so far is checkpointed, and on timeout or memout
//     the run returns a typed *Partial carrying that routing, the residual
//     failing deliveries from the last verification pass, and a Degradation
//     report naming the stage that ran out and why;
//   - panics escaping the internal packages are converted into typed errors
//     at the supervisor boundary (the bdd package's control-flow overflow
//     panic is mapped back to bdd.ErrNodeLimit).
//
// Every stage doubles as a registered fault point; the faultinject
// sub-package drives cancellation, node-limit exhaustion and injected errors
// through each of them deterministically.
package resilience

import (
	"errors"
	"fmt"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/encode"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/reduce"
	"syrep/internal/repair"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// Strategy selects how Synthesize computes the routing.
type Strategy int

const (
	// Baseline is full BDD synthesis from scratch on the original network
	// (the SyPer approach of [26]).
	Baseline Strategy = iota + 1
	// HeuristicOnly runs the heuristic generator on the original network
	// and repairs it.
	HeuristicOnly
	// ReductionOnly reduces the network aggressively, synthesises from
	// scratch on the reduced network, expands, and repairs.
	ReductionOnly
	// Combined is the full SyRep pipeline: aggressive reduction + heuristic
	// + repair on the reduced network, expansion, then repair on the
	// original network. This is the paper's headline method.
	Combined
)

// String returns the strategy name as used in the paper's plots.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case HeuristicOnly:
		return "heuristic"
	case ReductionOnly:
		return "reduction"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ErrUnsolvable is returned when the selected strategy cannot produce a
// perfectly k-resilient routing for the instance (which may still be
// solvable by another strategy, or genuinely have no solution).
var ErrUnsolvable = errors.New("resilience: strategy could not produce a perfectly k-resilient routing")

// ErrBudget marks a deadline expiry caused by a per-stage budget rather
// than the overall timeout: the stage exhausted its share of the deadline
// while the run as a whole still had time. It always travels joined with
// context.DeadlineExceeded so both errors.Is checks hold.
var ErrBudget = errors.New("resilience: stage budget exhausted")

// BudgetError is the cancellation cause the supervisor installs on each
// stage context (via context.WithDeadlineCause). When a stage dies of its
// own budget rather than the overall deadline, context.Cause surfaces this
// error and the resulting Degradation or Partial names the exhausted stage
// instead of reporting a bare context.DeadlineExceeded. It unwraps to
// ErrBudget, so errors.Is(err, ErrBudget) holds wherever it travels.
type BudgetError struct {
	// Stage is the stage whose budget expired.
	Stage Stage
}

// Error names the exhausted stage budget.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("resilience: %s stage budget exceeded", e.Stage)
}

// Unwrap makes errors.Is(err, ErrBudget) hold.
func (e *BudgetError) Unwrap() error { return ErrBudget }

// Stage identifies one pipeline stage. Stages double as the registered
// fault points of the fault-injection harness: the supervisor consults
// Options.Hook under each stage's name immediately before running it (and
// before every retry of a BDD stage).
type Stage string

const (
	// StageReduce is the structural chain reduction (Section IV-B).
	StageReduce Stage = "reduce"
	// StageHeuristic is the routing generator (Section IV-A).
	StageHeuristic Stage = "heuristic"
	// StageSynth is from-scratch BDD synthesis (Baseline / ReductionOnly).
	StageSynth Stage = "synth"
	// StageVerifyReduced is the verification pass on the reduced network.
	StageVerifyReduced Stage = "verify-reduced"
	// StageRepairReduced is the repair pass on the reduced network.
	StageRepairReduced Stage = "repair-reduced"
	// StageExpand lifts the reduced routing back to the original network.
	StageExpand Stage = "expand"
	// StageVerify is the verification pass on the original network.
	StageVerify Stage = "verify"
	// StageRepair is the repair pass on the original network. It is the
	// endgame stage: it always runs to the overall deadline, never a
	// fractional budget.
	StageRepair Stage = "repair"
	// StageFinalVerify is the independent safety-net verification of the
	// produced routing.
	StageFinalVerify Stage = "final-verify"

	// StageBatchFanout wraps one destination's whole pipeline inside a
	// SynthesizeAll batch; a fault injected here poisons exactly that
	// destination, which must surface as its per-destination typed error and
	// never fail the batch.
	StageBatchFanout Stage = "batch-fanout"
)

// Churn-controller stages (internal/controller). They live here because
// Stage is the fault-injection currency: the controller consults the same
// Hook interface at these points, so one harness scripts faults across both
// the pipeline and the control loop. They are deliberately NOT part of
// FaultPoints() — the supervisor never visits them.
const (
	// StageCtlInbox is consulted on every event admission; an error there
	// is treated as inbox overflow (backpressure rejection).
	StageCtlInbox Stage = "ctl-inbox"
	// StageCtlRepair is consulted before each per-destination repair
	// attempt; an error fails the attempt with that error.
	StageCtlRepair Stage = "ctl-repair"
	// StageCtlEpoch is consulted between a completed repair and its push —
	// the epoch-race window. A Call-kind fault injects a superseding event
	// here; an error fails the reconcile step.
	StageCtlEpoch Stage = "ctl-epoch"
	// StageCtlPush is consulted before every southbound push attempt; an
	// error becomes that attempt's failure (transient errors are retried
	// by the pusher, everything else dead-letters the delta).
	StageCtlPush Stage = "ctl-push"
)

// Journal stages (internal/journal, via its crashfs test FS). Like the
// ctl-* stages they share the Stage currency so one faultinject plan can
// script filesystem faults alongside pipeline and controller faults. The
// crash-matrix harness consults these around every journaled filesystem
// operation; an Error-kind fault becomes that operation's failure, and the
// harness's own kill machinery uses the visit stream to place process
// "kills" at exact operation indices.
const (
	// StageJrnWrite is consulted on every segment or snapshot write.
	StageJrnWrite Stage = "jrn-write"
	// StageJrnSync is consulted on every file fsync.
	StageJrnSync Stage = "jrn-sync"
	// StageJrnRename is consulted on every rename (snapshot publication).
	StageJrnRename Stage = "jrn-rename"
	// StageJrnRemove is consulted on every removal (compaction).
	StageJrnRemove Stage = "jrn-remove"
)

// FaultPoints returns every stage at which the supervisor consults the
// fault-injection hook, in pipeline order.
func FaultPoints() []Stage {
	return []Stage{
		StageReduce, StageHeuristic, StageSynth,
		StageVerifyReduced, StageRepairReduced, StageExpand,
		StageVerify, StageRepair, StageFinalVerify,
	}
}

// BatchFaultPoints returns every stage at which SynthesizeAll consults the
// fault-injection hook, beyond the per-destination pipeline's own points.
func BatchFaultPoints() []Stage {
	return []Stage{StageBatchFanout}
}

// ControllerFaultPoints returns every stage at which the churn controller
// consults the fault-injection hook, in event-lifecycle order.
func ControllerFaultPoints() []Stage {
	return []Stage{StageCtlInbox, StageCtlRepair, StageCtlEpoch, StageCtlPush}
}

// JournalFaultPoints returns every stage at which the journal's crashfs
// consults the fault-injection hook, in write-path order.
func JournalFaultPoints() []Stage {
	return []Stage{StageJrnWrite, StageJrnSync, StageJrnRename, StageJrnRemove}
}

// Hook observes (and may sabotage) the pipeline at each stage. A non-nil
// return is treated exactly like the stage failing with that error, which is
// how the fault-injection harness forces node-limit exhaustion and arbitrary
// stage errors; returning nil lets the stage run. Production runs leave
// Options.Hook nil.
type Hook interface {
	At(Stage) error
}

// Degradation records one way a run fell short of the full pipeline: a stage
// that exhausted its budget, an escalation rung climbed after node-limit
// exhaustion, or the stage a Partial result died in.
type Degradation struct {
	// Stage is the pipeline stage concerned.
	Stage Stage
	// Cause is the error that triggered the degradation (stage budget
	// expiry, bdd.ErrNodeLimit, cancellation, or an injected error).
	Cause error
	// Attempts counts the BDD solve attempts consumed at the stage, when it
	// is a BDD stage (0 otherwise).
	Attempts int
	// Detail is a human-readable account of what the supervisor did about
	// it.
	Detail string
}

func (d Degradation) String() string {
	s := fmt.Sprintf("%s: %v", d.Stage, d.Cause)
	if d.Attempts > 0 {
		s += fmt.Sprintf(" (after %d attempts)", d.Attempts)
	}
	if d.Detail != "" {
		s += "; " + d.Detail
	}
	return s
}

// Partial is the typed anytime result: the run could not finish, but the
// supervisor checkpointed a usable routing. It implements error so that it
// flows through the existing error-returning APIs; Unwrap exposes the root
// cause so that errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, bdd.ErrNodeLimit) keep working on callers that only care
// about timeout-vs-memout.
type Partial struct {
	// Routing is the best checkpointed routing, on the original network,
	// hole-free. Never nil.
	Routing *routing.Routing
	// K is the resilience level the run was asked for.
	K int
	// Residual lists the failing deliveries of Routing at K from the last
	// verification pass (empty means the routing is believed resilient and
	// only certification was cut short). Meaningless when ResidualUnknown.
	Residual []verify.FailingDelivery
	// ResidualUnknown reports that no verification pass over Routing
	// completed, so Residual is unknown rather than empty.
	ResidualUnknown bool
	// Degradation names the stage that ran out and why.
	Degradation Degradation
}

// Error describes the partial outcome.
func (p *Partial) Error() string {
	if p.ResidualUnknown {
		return fmt.Sprintf("resilience: partial result (%s; unverified routing)", p.Degradation)
	}
	return fmt.Sprintf("resilience: partial result (%s; %d residual failing deliveries)",
		p.Degradation, len(p.Residual))
}

// Unwrap returns the root cause of the degradation.
func (p *Partial) Unwrap() error { return p.Degradation.Cause }

// AsPartial extracts a *Partial from an error chain.
func AsPartial(err error) (*Partial, bool) {
	var p *Partial
	if errors.As(err, &p) {
		return p, true
	}
	return nil, false
}

// PanicError is a panic that escaped an internal package, caught at the
// supervisor boundary and converted into a typed error. Control-flow panics
// of the bdd engine are mapped to bdd.ErrNodeLimit instead and never appear
// here.
type PanicError struct {
	// Stage is the pipeline stage that was running (empty when unknown).
	Stage Stage
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: internal panic at %q: %v", e.Stage, e.Value)
}

// Budgets apportions the overall Options.Timeout across the early pipeline
// stages, as fractions of the timeout. Each stage's deadline is
// min(overall deadline, stage start + fraction × timeout); unused budget
// rolls forward to later stages. The endgame stages — verification and
// repair on the original network, and the final safety-net verification —
// deliberately carry no fractional budget: they run to the overall deadline,
// which is what makes the split anytime-friendly (early stages cannot starve
// the repair that actually produces the answer). Zero fields take the
// defaults; budgets are ignored entirely when Timeout is zero.
type Budgets struct {
	// Reduce bounds the structural reduction (default 0.05).
	Reduce float64
	// Heuristic bounds the routing generator (default 0.10).
	Heuristic float64
	// Verify bounds the verification pass on the reduced network
	// (default 0.20).
	Verify float64
	// Repair bounds the repair (or from-scratch synthesis) on the reduced
	// network (default 0.40).
	Repair float64
	// Expand bounds the expansion back to the original network
	// (default 0.05).
	Expand float64
}

func (b Budgets) withDefaults() Budgets {
	if b.Reduce == 0 {
		b.Reduce = 0.05
	}
	if b.Heuristic == 0 {
		b.Heuristic = 0.10
	}
	if b.Verify == 0 {
		b.Verify = 0.20
	}
	if b.Repair == 0 {
		b.Repair = 0.40
	}
	if b.Expand == 0 {
		b.Expand = 0.05
	}
	return b
}

// Options configures a synthesis run.
type Options struct {
	// Strategy defaults to Combined.
	Strategy Strategy
	// Timeout bounds the run (0 = none); on expiry the run returns a
	// *Partial wrapping context.DeadlineExceeded when a checkpointed routing
	// exists, and the bare context error otherwise.
	Timeout time.Duration
	// Budgets splits Timeout across the early stages.
	Budgets Budgets
	// Reduction selects the reduction rule for strategies that reduce
	// (default Aggressive, as in the paper's architecture).
	Reduction reduce.Rule
	// Encode tunes the BDD engine. Its NodeLimit is the first rung of the
	// escalation ladder; on bdd.ErrNodeLimit the supervisor retries with the
	// limit quadrupled and reordering forced on, then with a reduced-scope
	// repair strategy.
	Encode encode.Options
	// RepairStrategy selects the suspicious-entry removal policy.
	RepairStrategy repair.Strategy
	// SkipFinalVerify disables the final independent verification pass
	// (the pipeline's own invariants make it redundant; it is kept on by
	// default as a safety net).
	SkipFinalVerify bool
	// GraceVerify bounds the detached verification pass that prices a
	// Partial result whose checkpoint was never verified (default 2s). The
	// pass runs on a context disconnected from the expired deadline.
	GraceVerify time.Duration
	// MaxAttempts caps the escalation ladder per BDD stage (default 3:
	// configured limits, 4× limit with reordering, reduced scope).
	MaxAttempts int
	// Hook is the fault-injection test hook; nil in production.
	Hook Hook
	// VerifyBackend routes the supervisor's verification passes (initial,
	// reduced, warm-start, grace, and final) through an alternative
	// verify.Backend — typically a verify.Router dispatching large-k checks
	// to the polynomial fast path. Nil means the brute-force verify.Check,
	// the historical behaviour. A backend whose Check fails with
	// verify.ErrNotApplicable surfaces that error to the stage; wrap fast
	// paths in a Router so the oracle absorbs bailouts.
	VerifyBackend verify.Backend
	// Obs, when non-nil, observes the run: every pipeline stage emits a
	// wall-clock span (tagged with pprof goroutine labels, so CPU profiles
	// attribute samples to stages), and the BDD engine, verifier, and repair
	// loop register their counter taps with it. The whole run is wrapped in
	// an obs.SpanTotal span. Nil means unobserved; the instrumented hot
	// paths then cost a nil check each.
	Obs *obs.Observer
	// Shared carries destination-independent state reused across the runs of
	// a batch (see SynthesizeAll): precomputed reduction candidates and a
	// BDD manager pool. Nil means run standalone. Sharing never changes a
	// run's result — the shared reduce is differentially pinned equal to the
	// standalone one, and pooled managers are pinned indistinguishable from
	// fresh ones.
	Shared *SharedResources
}

// SharedResources bundles the destination-independent state a batch of
// synthesis runs over one network can share. Build it once with
// NewSharedResources and set it on every run's Options.Shared.
type SharedResources struct {
	// Reduce holds the precomputed chain-contraction candidate set; the
	// supervisor uses it instead of reduce.Apply when the run's network and
	// rule match.
	Reduce *reduce.Shared
	// Pool recycles BDD managers across solves so N destinations reuse warm
	// arenas instead of allocating N times.
	Pool *bdd.ManagerPool
}

// NewSharedResources precomputes shared state for synthesizing many
// destinations on net. rule must match the Options.Reduction of the runs
// that will use it (zero means the default, reduce.Aggressive); nodeLimit
// seeds the pool's managers and is re-tuned per solve (0 = the encode
// default).
func NewSharedResources(net *network.Network, rule reduce.Rule, nodeLimit int) (*SharedResources, error) {
	if rule == 0 {
		rule = reduce.Aggressive
	}
	if nodeLimit == 0 {
		nodeLimit = encode.DefaultNodeLimit
	}
	sh, err := reduce.NewShared(net, rule)
	if err != nil {
		return nil, err
	}
	return &SharedResources{
		Reduce: sh,
		Pool:   bdd.NewManagerPool(bdd.Config{NodeLimit: nodeLimit}),
	}, nil
}

func (o Options) withDefaults() Options {
	if o.Strategy == 0 {
		o.Strategy = Combined
	}
	if o.Reduction == 0 {
		o.Reduction = reduce.Aggressive
	}
	if o.GraceVerify == 0 {
		o.GraceVerify = 2 * time.Second
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.Shared != nil && o.Shared.Pool != nil && o.Encode.Pool == nil {
		// Thread the batch's manager pool into every encode solve of the run
		// (ladder retries, warm-start fills) — each solve checks a manager
		// out and releases it, so concurrent runs never share one.
		o.Encode.Pool = o.Shared.Pool
	}
	o.Budgets = o.Budgets.withDefaults()
	return o
}

// Report describes a synthesis run for the benchmark harness.
type Report struct {
	Strategy Strategy
	K        int
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Reduced tells whether a structural reduction was applied, and its
	// effect.
	Reduced               bool
	NodesRemoved          int
	ReducedRepairUsed     bool
	ExpansionRepairUsed   bool
	ExpansionResilient    bool
	HeuristicWasResilient bool
	// Degradations lists everything the run had to give up or escalate:
	// stage-budget expiries, node-limit escalations, skipped stages.
	Degradations []Degradation
	// SolveAttempts counts BDD solve attempts across all ladder runs.
	SolveAttempts int
	// WarmStart tells whether the run was seeded from a cached table (the
	// WarmStart entry point) rather than synthesized cold, and how many
	// holes the adaptation punched for the fill stage.
	WarmStart   bool
	HolesFilled int
}

// Degraded reports whether the run deviated from the full pipeline.
func (r *Report) Degraded() bool { return len(r.Degradations) > 0 }
