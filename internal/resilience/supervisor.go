package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/encode"
	"syrep/internal/heuristic"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/reduce"
	"syrep/internal/repair"
	"syrep/internal/routing"
	"syrep/internal/synth"
	"syrep/internal/verify"
)

// Synthesize produces a perfectly k-resilient routing for dest on net using
// the configured strategy, as an anytime computation: on timeout or memout
// with a checkpointed routing in hand, the error is a *Partial carrying that
// routing. The returned routing is always re-verified unless SkipFinalVerify
// is set. Panics escaping the internal packages are converted into a typed
// *PanicError (or bdd.ErrNodeLimit for an escaped engine overflow).
func Synthesize(ctx context.Context, net *network.Network, dest network.NodeID, k int, opts Options) (r *routing.Routing, rep *Report, err error) {
	opts = opts.withDefaults()
	if verr := validateSynthesize(net, dest, k); verr != nil {
		return nil, nil, verr
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if opts.Obs != nil {
		opts.Encode.Counters = opts.Obs.BDD()
	}
	ctx, endTotal := opts.Obs.StartStage(ctx, obs.SpanTotal)
	defer endTotal()
	start := time.Now()
	rep = &Report{Strategy: opts.Strategy, K: k}
	s := &run{ctx: ctx, net: net, dest: dest, k: k, opts: opts, rep: rep}
	defer func() {
		rep.Elapsed = time.Since(start)
		if v := recover(); v != nil {
			r = nil
			err = recoveredError(s.stage, v)
		}
	}()
	r, err = s.synthesize()
	return r, rep, err
}

// Repair fortifies an existing routing to perfect k-resilience — the
// paper's standalone repair use case (an operator's existing data plane is
// minimally modified). On timeout or memout mid-repair the error is a
// *Partial carrying the (unimproved) input routing together with its
// residual failing deliveries, so the caller learns exactly what still
// fails. Unlike Synthesize, repair does not escalate beyond the suspicious
// entries (the paper's repair is deliberately incomplete); the node-limit
// ladder still applies.
func Repair(ctx context.Context, r *routing.Routing, k int, opts Options) (out *repair.Outcome, err error) {
	opts = opts.withDefaults()
	if r == nil {
		return nil, errors.New("resilience: nil routing")
	}
	if k < 0 {
		return nil, fmt.Errorf("resilience: negative resilience level %d", k)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if opts.Obs != nil {
		opts.Encode.Counters = opts.Obs.BDD()
	}
	ctx, endTotal := opts.Obs.StartStage(ctx, obs.SpanTotal)
	defer endTotal()
	s := &run{ctx: ctx, net: r.Network(), dest: r.Dest(), k: k, opts: opts,
		rep: &Report{Strategy: opts.Strategy, K: k}}
	defer func() {
		if v := recover(); v != nil {
			out = nil
			err = recoveredError(s.stage, v)
		}
	}()

	err = s.at(StageVerify)
	var vrep *verify.Report
	if err == nil {
		err = s.spanned(StageVerify, func() (e error) {
			vrep, e = s.verifyCheck(ctx, r, s.verifyOpts())
			return
		})
	}
	if err != nil {
		return nil, s.fail(StageVerify, err, 0)
	}
	if vrep.Resilient {
		return &repair.Outcome{Routing: r.Clone(), AlreadyResilient: true}, nil
	}
	s.cp = &checkpoint{routing: r.Clone(), residual: vrep.Failing, verified: true}

	res, attempts, rerr := s.ladderRepair(ctx, StageRepair, r, vrep, false)
	if rerr != nil {
		if s.classify(rerr) == failUnrepairable {
			return nil, fmt.Errorf("%w: %v", ErrUnsolvable, rerr)
		}
		return nil, s.fail(StageRepair, rerr, attempts)
	}
	return res, nil
}

func validateSynthesize(net *network.Network, dest network.NodeID, k int) error {
	if net == nil {
		return errors.New("resilience: nil network")
	}
	if int(dest) < 0 || int(dest) >= net.NumNodes() {
		return fmt.Errorf("resilience: destination %d out of range (network has %d nodes)",
			dest, net.NumNodes())
	}
	if k < 0 {
		return fmt.Errorf("resilience: negative resilience level %d", k)
	}
	return nil
}

// recoveredError maps a recovered panic value to a typed error: the bdd
// engine's control-flow overflow panic (which must stay a panic inside the
// engine) becomes bdd.ErrNodeLimit, everything else a *PanicError.
func recoveredError(stage Stage, v any) error {
	if bdd.IsOverflow(v) {
		return fmt.Errorf("resilience: %s: %w (overflow escaped its protect region)",
			stage, bdd.ErrNodeLimit)
	}
	return &PanicError{Stage: stage, Value: v, Stack: debug.Stack()}
}

// checkpoint is the best routing seen so far.
type checkpoint struct {
	routing *routing.Routing
	// rd is non-nil when routing lives on the reduced network and must be
	// expanded before it is usable.
	rd *reduce.Reduction
	// residual holds the failing deliveries of routing at k, valid only
	// when verified is set (and rd is nil).
	residual []verify.FailingDelivery
	verified bool
}

// run carries the per-invocation supervisor state.
type run struct {
	ctx   context.Context // overall context, deadline already applied
	net   *network.Network
	dest  network.NodeID
	k     int
	opts  Options
	rep   *Report
	stage Stage // last stage entered, for panic attribution
	cp    *checkpoint
}

// at enters a stage: it records the stage for panic attribution and fires
// the fault-injection hook. A non-nil return is treated by callers exactly
// like the stage failing with that error.
func (s *run) at(stage Stage) error {
	s.stage = stage
	if s.opts.Hook == nil {
		return nil
	}
	if err := s.opts.Hook.At(stage); err != nil {
		return fmt.Errorf("resilience: injected fault at %s: %w", stage, err)
	}
	return nil
}

// span opens an observability span for stage on the supervisor goroutine
// and returns its end function. Goroutines the stage spawns (e.g. parallel
// verify workers) inherit the pprof stage label. No-op without an observer.
func (s *run) span(stage Stage) func() {
	_, end := s.opts.Obs.StartStage(s.ctx, string(stage))
	return end
}

// spanned runs f inside a stage span, ending the span even when f panics:
// Run's recover fence converts the panic into an error and keeps the
// observer alive, so a span left open there would stay open forever.
func (s *run) spanned(stage Stage, f func() error) error {
	end := s.span(stage)
	defer end()
	return f()
}

// verifyOpts is the option set of the supervisor's internal verification
// passes: pruned (subsumed failures add no information) and tapped into the
// observer's verify counters.
func (s *run) verifyOpts() verify.Options {
	return verify.Options{Prune: true, Counters: s.opts.Obs.Verify()}
}

// verifyCheck runs one verification pass through the configured backend
// (Options.VerifyBackend), defaulting to the brute-force verify.Check. All
// supervisor verification sites — initial, reduced, warm-start, grace, and
// final — go through here, so backend selection applies uniformly.
func (s *run) verifyCheck(ctx context.Context, r *routing.Routing, opts verify.Options) (*verify.Report, error) {
	if b := s.opts.VerifyBackend; b != nil {
		return b.Check(ctx, r, s.k, opts)
	}
	return verify.Check(ctx, r, s.k, opts)
}

// stageCtx derives a context bounded by the stage's share of the overall
// timeout, with a *BudgetError cancellation cause so that a budget expiry
// is attributable to its stage (context.Cause) rather than surfacing as a
// bare context error. Without an overall timeout there are no stage budgets.
func (s *run) stageCtx(stage Stage, frac float64) (context.Context, context.CancelFunc) {
	if s.opts.Timeout <= 0 {
		return s.ctx, func() {}
	}
	deadline := time.Now().Add(time.Duration(frac * float64(s.opts.Timeout)))
	return context.WithDeadlineCause(s.ctx, deadline, &BudgetError{Stage: stage})
}

// stageCause attaches the stage context's cancellation cause to err when the
// stage died of its own budget, so degradation records, Partial results and
// service error responses name the exhausted budget ("verify stage budget
// exceeded") instead of a bare context error. Errors unrelated to the stage
// context — and expiries of the overall deadline, whose cause is the plain
// context error — pass through unchanged.
func stageCause(sctx context.Context, err error) error {
	if err == nil || (!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
		return err
	}
	var be *BudgetError
	if !errors.As(context.Cause(sctx), &be) || errors.Is(err, ErrBudget) {
		return err
	}
	return errors.Join(be, err)
}

// failKind classifies a stage error for the degradation policy.
type failKind int

const (
	// failOverall: the overall deadline expired or the caller cancelled —
	// the run is over; salvage a Partial if possible.
	failOverall failKind = iota
	// failBudget: only the stage's budget expired; the run has time left
	// and can degrade around the stage.
	failBudget
	// failNodeLimit: the BDD engine (or an injected fault) exhausted the
	// node budget.
	failNodeLimit
	// failUnrepairable: the instance has no solution within the attempted
	// hole scope.
	failUnrepairable
	// failOther: anything else (internal errors, injected hard faults).
	failOther
)

func (s *run) classify(err error) failKind {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if s.ctx.Err() != nil {
			return failOverall
		}
		return failBudget
	case errors.Is(err, bdd.ErrNodeLimit):
		return failNodeLimit
	case errors.Is(err, repair.ErrUnrepairable) || errors.Is(err, encode.ErrUnrepairable):
		return failUnrepairable
	default:
		return failOther
	}
}

// degrade records a non-fatal deviation from the full pipeline.
func (s *run) degrade(stage Stage, cause error, attempts int, detail string) {
	if s.classify(cause) == failBudget && !errors.Is(cause, ErrBudget) {
		cause = errors.Join(ErrBudget, cause)
	}
	s.rep.Degradations = append(s.rep.Degradations,
		Degradation{Stage: stage, Cause: cause, Attempts: attempts, Detail: detail})
}

// fail ends the run at stage with cause. When a checkpointed routing exists
// it is promoted to a *Partial: a reduced-network checkpoint is expanded,
// and an unverified checkpoint is priced by a grace verification pass on a
// context detached from the expired deadline.
func (s *run) fail(stage Stage, cause error, attempts int) error {
	if s.classify(cause) == failBudget && !errors.Is(cause, ErrBudget) {
		cause = errors.Join(ErrBudget, cause)
	}
	cp := s.cp
	if cp == nil || cp.routing == nil {
		return cause
	}
	r := cp.routing
	verified, residual := cp.verified, cp.residual
	if cp.rd != nil {
		exp, err := cp.rd.Expand(r)
		if err != nil {
			return cause // cannot lift the checkpoint; no usable partial
		}
		r = exp
		verified, residual = false, nil
	}
	p := &Partial{
		Routing:     r,
		K:           s.k,
		Degradation: Degradation{Stage: stage, Cause: cause, Attempts: attempts},
	}
	if verified {
		p.Residual = residual
		return p
	}
	gctx, cancel := context.WithTimeout(context.WithoutCancel(s.ctx), s.opts.GraceVerify)
	vrep, err := s.verifyCheck(gctx, r, s.verifyOpts())
	cancel()
	if err != nil {
		p.ResidualUnknown = true
		return p
	}
	p.Residual = vrep.Failing
	return p
}

func (s *run) synthesize() (*routing.Routing, error) {
	switch s.opts.Strategy {
	case Baseline:
		return s.runBaseline()
	case HeuristicOnly:
		return s.runHeuristicPipeline(nil)
	case ReductionOnly:
		return s.runReduction()
	case Combined:
		rd, err := s.reduceStage()
		if err != nil {
			return nil, err
		}
		return s.runHeuristicPipeline(rd)
	default:
		return nil, fmt.Errorf("resilience: unknown strategy %v", s.opts.Strategy)
	}
}

// reduceStage applies the structural reduction under its budget. A budget
// expiry or node-limit fault degrades to "no reduction" — the pipeline
// continues on the original network; only overall expiry or a hard error is
// fatal. The returned reduction is nil when the stage was degraded away.
func (s *run) reduceStage() (*reduce.Reduction, error) {
	rctx, cancel := s.stageCtx(StageReduce, s.opts.Budgets.Reduce)
	defer cancel()
	err := s.at(StageReduce)
	var rd *reduce.Reduction
	if err == nil {
		err = s.spanned(StageReduce, func() (e error) {
			if sh := s.opts.Shared; sh != nil && sh.Reduce != nil &&
				sh.Reduce.Network() == s.net && sh.Reduce.Rule() == s.opts.Reduction {
				rd, e = sh.Reduce.ForDest(rctx, s.dest)
				return
			}
			rd, e = reduce.Apply(rctx, s.net, s.dest, s.opts.Reduction)
			return
		})
	}
	if err != nil {
		err = stageCause(rctx, err)
		switch s.classify(err) {
		case failBudget, failNodeLimit:
			s.degrade(StageReduce, err, 0, "continuing without reduction")
			return nil, nil
		default:
			return nil, s.fail(StageReduce, err, 0)
		}
	}
	s.rep.Reduced = true
	s.rep.NodesRemoved = rd.NumRemoved()
	return rd, nil
}

// runHeuristicPipeline is the heuristic-based flow, on the reduced network
// when rd is non-nil (Combined) and directly on the original otherwise
// (HeuristicOnly, or Combined whose reduction was degraded away).
func (s *run) runHeuristicPipeline(rd *reduce.Reduction) (*routing.Routing, error) {
	workNet, workDest := s.net, s.dest
	if rd != nil {
		workNet, workDest = rd.Reduced, rd.DestReduced
	}

	hctx, cancel := s.stageCtx(StageHeuristic, s.opts.Budgets.Heuristic)
	err := s.at(StageHeuristic)
	var h *routing.Routing
	if err == nil {
		err = s.spanned(StageHeuristic, func() (e error) {
			h, e = heuristic.Generate(hctx, workNet, workDest)
			return
		})
	}
	cancel()
	if err != nil {
		return nil, s.fail(StageHeuristic, stageCause(hctx, err), 0)
	}
	s.cp = &checkpoint{routing: h, rd: rd}

	work := h
	if rd != nil {
		work, err = s.reducedStages(rd, h)
		if err != nil {
			return nil, err
		}
	}
	return s.finishOnOriginal(rd, work)
}

// reducedStages verifies and repairs the heuristic routing on the reduced
// network. Budget expiry, node-limit exhaustion, and unrepairability all
// degrade to the unrepaired heuristic routing (the endgame repair on the
// original network remains able to fix it); only overall expiry or a hard
// fault is fatal.
func (s *run) reducedStages(rd *reduce.Reduction, h *routing.Routing) (*routing.Routing, error) {
	vctx, cancel := s.stageCtx(StageVerifyReduced, s.opts.Budgets.Verify)
	err := s.at(StageVerifyReduced)
	var vrep *verify.Report
	if err == nil {
		err = s.spanned(StageVerifyReduced, func() (e error) {
			vrep, e = s.verifyCheck(vctx, h, s.verifyOpts())
			return
		})
	}
	cancel()
	if err != nil {
		err = stageCause(vctx, err)
		switch s.classify(err) {
		case failBudget, failNodeLimit:
			s.degrade(StageVerifyReduced, err, 0, "skipping repair on the reduced network")
			return h, nil
		default:
			return nil, s.fail(StageVerifyReduced, err, 0)
		}
	}
	if vrep.Resilient {
		s.rep.HeuristicWasResilient = true
		return h, nil
	}

	rctx, cancel := s.stageCtx(StageRepairReduced, s.opts.Budgets.Repair)
	out, attempts, err := s.ladderRepair(rctx, StageRepairReduced, h, vrep, true)
	cancel()
	if err != nil {
		err = stageCause(rctx, err)
		switch s.classify(err) {
		case failBudget, failNodeLimit, failUnrepairable:
			s.degrade(StageRepairReduced, err, attempts, "expanding the unrepaired heuristic routing")
			return h, nil
		default:
			return nil, s.fail(StageRepairReduced, err, attempts)
		}
	}
	s.rep.ReducedRepairUsed = !out.AlreadyResilient
	s.cp = &checkpoint{routing: out.Routing, rd: rd}
	return out.Routing, nil
}

// finishOnOriginal runs the endgame: expansion (when reduced), verification
// and repair on the original network, and the final safety-net check. The
// verify and repair here run to the overall deadline — no fractional budget
// — because they produce the answer.
func (s *run) finishOnOriginal(rd *reduce.Reduction, work *routing.Routing) (*routing.Routing, error) {
	expanded := work
	if rd != nil {
		err := s.at(StageExpand)
		if err == nil {
			// Expansion is linear in the routing size; its budget is
			// enforced at stage entry.
			ectx, cancel := s.stageCtx(StageExpand, s.opts.Budgets.Expand)
			if cerr := ectx.Err(); cerr != nil {
				err = stageCause(ectx, cerr)
			} else {
				err = s.spanned(StageExpand, func() (e error) {
					expanded, e = rd.Expand(work)
					return
				})
			}
			cancel()
		}
		if err != nil {
			return nil, s.fail(StageExpand, err, 0)
		}
		s.cp = &checkpoint{routing: expanded}
	}

	err := s.at(StageVerify)
	var vrep *verify.Report
	if err == nil {
		err = s.spanned(StageVerify, func() (e error) {
			vrep, e = s.verifyCheck(s.ctx, expanded, s.verifyOpts())
			return
		})
	}
	if err != nil {
		return nil, s.fail(StageVerify, err, 0)
	}
	if vrep.Resilient {
		if rd != nil {
			s.rep.ExpansionResilient = true
		} else {
			s.rep.HeuristicWasResilient = true
		}
		s.cp = &checkpoint{routing: expanded, verified: true}
		return s.finalVerify(expanded)
	}
	s.cp = &checkpoint{routing: expanded, residual: vrep.Failing, verified: true}

	out, attempts, err := s.ladderRepair(s.ctx, StageRepair, expanded, vrep, true)
	if err != nil {
		if s.classify(err) == failUnrepairable {
			// Escalation makes repair complete: unrepairable here means no
			// perfectly k-resilient routing with lists of length k+1 exists.
			return nil, fmt.Errorf("%w: %v", ErrUnsolvable, err)
		}
		return nil, s.fail(StageRepair, err, attempts)
	}
	if rd != nil {
		s.rep.ExpansionRepairUsed = true
	}
	s.cp = &checkpoint{routing: out.Routing, verified: true}
	return s.finalVerify(out.Routing)
}

func (s *run) runBaseline() (*routing.Routing, error) {
	sol, attempts, err := s.ladderSynth(s.ctx, s.net, s.dest)
	if err != nil {
		if s.classify(err) == failUnrepairable {
			return nil, fmt.Errorf("%w: no perfectly %d-resilient routing", ErrUnsolvable, s.k)
		}
		return nil, s.fail(StageSynth, err, attempts)
	}
	s.cp = &checkpoint{routing: sol.Routing, verified: true}
	return s.finalVerify(sol.Routing)
}

func (s *run) runReduction() (*routing.Routing, error) {
	rd, err := s.reduceStage()
	if err != nil {
		return nil, err
	}
	workNet, workDest := s.net, s.dest
	sctx, cancel := s.ctx, context.CancelFunc(func() {})
	if rd != nil {
		workNet, workDest = rd.Reduced, rd.DestReduced
		sctx, cancel = s.stageCtx(StageSynth, s.opts.Budgets.Repair)
	}
	sol, attempts, serr := s.ladderSynth(sctx, workNet, workDest)
	cancel()
	if serr != nil {
		serr = stageCause(sctx, serr)
		if s.classify(serr) == failUnrepairable {
			return nil, fmt.Errorf("%w: reduced network unsynthesisable", ErrUnsolvable)
		}
		return nil, s.fail(StageSynth, serr, attempts)
	}
	if rd == nil {
		s.cp = &checkpoint{routing: sol.Routing, verified: true}
		return s.finalVerify(sol.Routing)
	}
	s.cp = &checkpoint{routing: sol.Routing, rd: rd}
	return s.finishOnOriginal(rd, sol.Routing)
}

func (s *run) finalVerify(r *routing.Routing) (*routing.Routing, error) {
	if s.opts.SkipFinalVerify {
		return r, nil
	}
	err := s.at(StageFinalVerify)
	var vrep *verify.Report
	if err == nil {
		err = s.spanned(StageFinalVerify, func() (e error) {
			vrep, e = s.verifyCheck(s.ctx, r,
				verify.Options{StopAtFirst: true, Counters: s.opts.Obs.Verify()})
			return
		})
	}
	if err != nil {
		return nil, s.fail(StageFinalVerify, err, 0)
	}
	if !vrep.Resilient {
		return nil, fmt.Errorf("resilience: internal error: produced routing failed final verification")
	}
	return r, nil
}

// ladderRepair runs repair under the node-limit escalation ladder: the
// configured limits first, then the limit quadrupled with reordering forced
// on, then a reduced-scope (gradual) hole strategy. The fault hook fires
// before every attempt, so injected node-limit faults exercise the ladder
// exactly like real exhaustion. Escalation of the *hole set* (repair's own
// completeness ladder) is orthogonal and controlled by escalate.
func (s *run) ladderRepair(ctx context.Context, stage Stage, r *routing.Routing, vrep *verify.Report, escalate bool) (*repair.Outcome, int, error) {
	endSpan := s.span(stage)
	defer endSpan()
	enc := s.opts.Encode
	strat := s.opts.RepairStrategy
	attempts := 0
	for {
		attempts++
		s.rep.SolveAttempts++
		err := s.at(stage)
		var out *repair.Outcome
		if err == nil {
			out, err = repair.Repair(ctx, r, s.k, repair.Options{
				Strategy: strat,
				Escalate: escalate,
				Encode:   enc,
				Verify:   verify.Options{Counters: s.opts.Obs.Verify()},
				Report:   vrep,
				Counters: s.opts.Obs.Repair(),
			})
		}
		if err == nil {
			return out, attempts, nil
		}
		if !errors.Is(err, bdd.ErrNodeLimit) || ctx.Err() != nil || attempts >= s.opts.MaxAttempts {
			return nil, attempts, err
		}
		switch attempts {
		case 1:
			if enc.NodeLimit == 0 {
				enc.NodeLimit = encode.DefaultNodeLimit
			}
			enc.NodeLimit *= 4
			enc.DisableReorder = false
			s.degrade(stage, err, attempts,
				fmt.Sprintf("retrying with node limit %d and reordering enabled", enc.NodeLimit))
		default:
			strat = repair.Gradual
			s.degrade(stage, err, attempts, "retrying with reduced-scope (gradual) hole sets")
		}
	}
}

// ladderSynth is the escalation ladder for from-scratch synthesis. It has
// no reduced-scope rung (every entry is a hole by definition), so it climbs
// at most once: configured limits, then 4× with reordering.
func (s *run) ladderSynth(ctx context.Context, net *network.Network, dest network.NodeID) (*encode.Solution, int, error) {
	endSpan := s.span(StageSynth)
	defer endSpan()
	enc := s.opts.Encode
	maxAttempts := s.opts.MaxAttempts
	if maxAttempts > 2 {
		maxAttempts = 2
	}
	attempts := 0
	for {
		attempts++
		s.rep.SolveAttempts++
		err := s.at(StageSynth)
		var sol *encode.Solution
		if err == nil {
			sol, err = synth.Baseline(ctx, net, dest, s.k, enc)
		}
		if err == nil {
			return sol, attempts, nil
		}
		if !errors.Is(err, bdd.ErrNodeLimit) || ctx.Err() != nil || attempts >= maxAttempts {
			return nil, attempts, err
		}
		if enc.NodeLimit == 0 {
			enc.NodeLimit = encode.DefaultNodeLimit
		}
		enc.NodeLimit *= 4
		enc.DisableReorder = false
		s.degrade(StageSynth, err, attempts,
			fmt.Sprintf("retrying synthesis with node limit %d and reordering enabled", enc.NodeLimit))
	}
}
