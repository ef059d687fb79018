// Package encode implements the BDD encoding of the skipping-routing
// synthesis problem (Section III-A of the SyRep paper).
//
// Two engines are provided:
//
//   - The scenario engine (this file) computes the perfectly-k-resilient
//     formula P over the *hole parameters* of a routing by expanding the
//     paper's universal quantification over failure vectors into an explicit
//     conjunction over failure scenarios |F| <= k:
//
//     P(holes) = ⋀_{F} ⋀_{s ~ d in G∖F} D_F(lb_s, s)(holes)
//
//     where each per-scenario deliverability predicate D_F is the paper's
//     fixpoint D computed over explicit (in-edge, node) states whose values
//     are BDDs over the hole-parameter variables. This is semantically the
//     same P restricted to the holes, and it is what makes repair fast: few
//     holes mean few BDD variables. With every entry a hole it degrades into
//     full synthesis from scratch — the SyPer baseline the paper compares
//     against. Solve conjoins only the scenarios that refute a candidate
//     filling (counterexample-guided); SolveEager and Enumerate conjoin
//     them all.
//
//   - The symbolic engine (symbolic.go) is the literal formulation with
//     symbolic failure vectors and universal quantification, faithful to the
//     paper's formulae; it reproduces the Figure 2 example and serves as a
//     cross-check oracle on small networks.
package encode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"syrep/internal/bdd"
	"syrep/internal/bvec"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/routing"
	"syrep/internal/trace"
	"syrep/internal/verify"
)

// ErrUnrepairable is returned when no assignment of the holes makes the
// routing perfectly k-resilient. Per Section III-C the repair method is
// incomplete: a different (larger) hole set may still succeed.
var ErrUnrepairable = errors.New("encode: no hole assignment achieves k-resilience")

// DefaultNodeLimit is the node budget used when Options.NodeLimit is zero.
const DefaultNodeLimit = 4 << 20

// Options tunes the scenario engine.
type Options struct {
	// NodeLimit caps BDD nodes (0 = DefaultNodeLimit). Exceeding it aborts
	// with bdd.ErrNodeLimit.
	NodeLimit int
	// GCThreshold triggers a garbage collection between scenarios when the
	// node count exceeds it (0 = default 256k).
	GCThreshold int
	// DisableReorder switches off dynamic variable reordering (sifting).
	// By default the engine sifts, like the paper's CUDD backend, as a
	// recovery step when a scenario's conjunction exhausts the node limit,
	// then retries the scenario once. This cheap in-scenario retry is rung 0
	// of the node-limit escalation ladder; the resilience supervisor layers
	// bigger-limit and reduced-scope rungs above it.
	DisableReorder bool
	// ManagerHook, when set, observes the BDD manager of every solve right
	// after creation. It exists for tests (e.g. fault injection asserting
	// that no protected refs leak on any exit path) and must not retain the
	// manager past the solve.
	ManagerHook func(*bdd.Manager)
	// Counters, when non-nil, receives the BDD engine's counter stream for
	// the solve: the manager is attached to it right after creation (see
	// bdd.Manager.Observe). Nil means unobserved — the engine's hot paths
	// then cost one nil check per op.
	Counters *obs.BDDCounters
	// Pool, when non-nil, supplies the solve's Manager instead of a fresh
	// NewWithConfig and takes it back (Reset) when the solve ends, so batch
	// runs reuse warm arenas across destinations. A pooled Manager is
	// indistinguishable from a fresh one (see bdd.Manager.Reset), so results
	// do not depend on whether a Pool is set.
	Pool *bdd.ManagerPool
}

// manager checks a Manager out of o.Pool — or builds a throwaway one — and
// returns it with its release func. The release is safe on every exit path,
// including panics unwinding through Protect: Put resets the Manager before
// shelving it.
func (o Options) manager() (*bdd.Manager, func()) {
	if o.Pool != nil {
		m := o.Pool.Get()
		m.SetNodeLimit(o.NodeLimit)
		return m, func() { o.Pool.Put(m) }
	}
	return bdd.NewWithConfig(bdd.Config{NodeLimit: o.NodeLimit}), func() {}
}

func (o Options) withDefaults() Options {
	if o.NodeLimit == 0 {
		o.NodeLimit = DefaultNodeLimit
	}
	if o.GCThreshold == 0 {
		o.GCThreshold = 256 << 10
	}
	return o
}

// Solution is the result of a successful Solve.
type Solution struct {
	// Routing is the input routing with every hole filled.
	Routing *routing.Routing
	// NumSolutions is the number of distinct hole assignments that satisfy
	// the encoded constraints (can be fractional-free large; float64 like
	// SatCount). On the eager path (SolveEager) every scenario is encoded, so
	// it counts the assignments that achieve k-resilience; Solve encodes only
	// the refuting scenarios, so there it is an upper bound on that count.
	NumSolutions float64
	// Scenarios is the number of failure scenarios |F| <= k of the instance
	// that were examined: conjoined on the eager path, checked by the final
	// concrete verification on the counterexample-guided one.
	Scenarios int
	// ScenariosEncoded is the number of failure scenarios whose constraint
	// was conjoined into the formula.
	ScenariosEncoded int
	// CheckRounds is the number of candidate fillings Solve extracted and
	// checked by brute-force verification (0 on the eager path).
	CheckRounds int
	// SymbolicScenarios counts encoded scenarios that actually required
	// symbolic evaluation (some trace reached a hole).
	SymbolicScenarios int
	// PeakNodes is the maximum live BDD node count observed.
	PeakNodes int
	// Reorders counts dynamic variable reordering passes.
	Reorders int
}

// hole carries the synthesis parameters of one removed routing entry.
type hole struct {
	key routing.Key
	// cands are the candidate out-edges (real edges incident to key.At).
	cands []network.EdgeID
	// slots are the symbolic priority-list positions; slot values are
	// indices into cands.
	slots []bvec.Vec
	// domain constrains slot values to valid candidates and forbids the
	// in-edge in slot 0 (paper's V_{v,e}), unless it is the only candidate.
	domain bdd.Ref
}

// solver holds the per-instance state of the scenario engine.
type solver struct {
	m    *bdd.Manager
	net  *network.Network
	r    *routing.Routing
	k    int
	opts Options
	// ctx is checked between fixpoint sweeps; the Manager also polls it
	// inside BDD operations (bdd.Manager.SetContext), so a single expensive
	// operation cannot outlive a timeout by much either.
	ctx   context.Context
	holes []hole
	// holeAt maps a routing key to its hole, for transition lookup.
	holeAt map[routing.Key]*hole
	// stateID indexes (in-edge, node) pairs densely.
	stateID map[routing.Key]int
	states  []routing.Key
	// p is the conjunction of the hole domains and every scenario
	// constraint encoded so far. It is the only protected ref between
	// scenarios.
	p bdd.Ref
	// sol accumulates the run statistics.
	sol Solution
	// peak tracks the maximum live BDD node count observed.
	peak int
}

// Solve computes the perfectly-k-resilient formula over the holes of r and
// returns a routing with all holes filled. The input routing is not
// modified. It fails with ErrUnrepairable when the holes cannot be filled,
// with bdd.ErrNodeLimit when the computation exceeds the node budget, and
// with ctx.Err() on cancellation.
//
// Solve is counterexample-guided: it encodes the all-up scenario, extracts
// the candidate filling, checks it by brute force at k, conjoins the
// constraints of the scenarios that refute it, and repeats until a
// candidate verifies. Only scenarios some candidate fails are encoded.
// Without a reorder (see Options.DisableReorder) the filled routing is the
// one SolveEager returns: extract picks the smallest satisfying assignment
// in level order, the full formula implies the encoded subset, and the
// subset's smallest element verifies, so it is also the full formula's
// smallest element. An empty subset formula means an empty full formula, so
// ErrUnrepairable agrees as well.
func Solve(ctx context.Context, r *routing.Routing, k int, opts Options) (*Solution, error) {
	return solve(ctx, r, k, opts, (*solver).cegis)
}

// SolveEager is Solve with the paper's eager encoding: it conjoins the
// constraint of every failure scenario |F| <= k before extracting the
// filling. It is the SyPer-style baseline's engine and the oracle Solve is
// tested against.
func SolveEager(ctx context.Context, r *routing.Routing, k int, opts Options) (*Solution, error) {
	return solve(ctx, r, k, opts, (*solver).eager)
}

// solve runs one solve on a fresh solver: fill builds the formula in s.p
// and returns the filled routing.
func solve(ctx context.Context, r *routing.Routing, k int, opts Options, fill func(*solver) (*routing.Routing, error)) (*Solution, error) {
	if k < 0 {
		return nil, fmt.Errorf("encode: negative resilience level %d", k)
	}
	s, release := newSolver(ctx, r, k, opts)
	defer release()
	s.m.Observe(s.opts.Counters)
	var sol *Solution
	err := s.m.Protect(func() error {
		if err := s.init(); err != nil {
			return err
		}
		filled, err := fill(s)
		if err != nil {
			return err
		}
		sol = &s.sol
		sol.Routing = filled
		sol.NumSolutions = s.countSolutions(s.p)
		sol.PeakNodes = s.peak
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// newSolver checks out a Manager for one solve and returns the solver with
// the Manager's release func.
func newSolver(ctx context.Context, r *routing.Routing, k int, opts Options) (*solver, func()) {
	opts = opts.withDefaults()
	m, release := opts.manager()
	s := &solver{
		m:      m,
		net:    r.Network(),
		r:      r,
		k:      k,
		opts:   opts,
		ctx:    ctx,
		holeAt: make(map[routing.Key]*hole),
	}
	if opts.ManagerHook != nil {
		opts.ManagerHook(m)
	}
	m.SetContext(ctx)
	return s, release
}

// init builds the hole variables and the state space, and starts p as the
// conjunction of the hole domains.
func (s *solver) init() error {
	if err := s.buildHoles(); err != nil {
		return err
	}
	s.buildStates()
	p := bdd.True
	for _, h := range s.holes {
		p = s.m.And(p, h.domain)
	}
	if p == bdd.False {
		return ErrUnrepairable
	}
	s.p = s.m.Ref(p)
	return nil
}

// eager conjoins every failure scenario into p and extracts the filling.
func (s *solver) eager() (*routing.Routing, error) {
	if err := s.encodeAll(); err != nil {
		return nil, err
	}
	return s.extract(s.p)
}

// encodeAll conjoins the constraint of every failure scenario |F| <= k into
// p.
func (s *solver) encodeAll() error {
	var err error
	s.net.ForEachScenario(s.k, func(F network.EdgeSet) bool {
		if err = s.ctx.Err(); err != nil {
			return false
		}
		s.sol.Scenarios++
		err = s.conjoin(F)
		return err == nil
	})
	return err
}

// cegis is the counterexample-guided loop of Solve: extract a candidate
// from p, verify it by brute force, and conjoin the refuting scenarios not
// yet encoded, until a candidate verifies. Each round adds at least one
// scenario, because the scenario constraints are exact: a candidate in p
// satisfies every encoded scenario. The check runs with Prune, so a
// superset scenario failing through the same entries as a reported one is
// left for a later round, where the repaired candidate usually passes it.
func (s *solver) cegis() (*routing.Routing, error) {
	encoded := make(map[string]bool)
	allUp := network.NewEdgeSet(s.net.NumRealEdges())
	encoded[allUp.Key()] = true
	if err := s.conjoin(allUp); err != nil {
		return nil, err
	}
	for {
		cand, err := s.extract(s.p)
		if err != nil {
			return nil, err
		}
		s.sol.CheckRounds++
		rep, err := verify.Check(s.ctx, cand, s.k, verify.Options{Prune: true})
		if err != nil {
			return nil, err
		}
		if rep.Resilient {
			s.sol.Scenarios = rep.Scenarios
			return cand, nil
		}
		added := false
		for _, f := range rep.Failing {
			key := f.Failed.Key()
			if encoded[key] {
				continue
			}
			encoded[key] = true
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			if err := s.conjoin(f.Failed); err != nil {
				return nil, err
			}
			added = true
		}
		if !added {
			return nil, fmt.Errorf("encode: internal error: candidate refuted only by encoded scenarios")
		}
	}
}

// conjoin conjoins the constraint of scenario F into p, failing with
// ErrUnrepairable when p becomes False. It runs under a nested Protect so
// that a node-limit overflow inside a single conjunction can be recovered:
// garbage-collect, sift, retry once. Between scenarios only p is live,
// making the end of conjoin a safe point for garbage collection. Dynamic
// reordering is reserved for that overflow recovery: proactive sifting
// costs more than it saves on instances that fit the node budget anyway.
func (s *solver) conjoin(F network.EdgeSet) error {
	m := s.m
	s.sol.ScenariosEncoded++
	attempt := func() error {
		return m.Protect(func() error {
			contrib, symbolic, err := s.scenarioConstraint(F)
			if err != nil {
				return err
			}
			if symbolic {
				s.sol.SymbolicScenarios++
			}
			if contrib == bdd.True {
				return nil
			}
			old := s.p
			s.p = m.Ref(m.And(old, contrib))
			m.Deref(old)
			return nil
		})
	}
	err := attempt()
	if err == bdd.ErrNodeLimit && !s.opts.DisableReorder {
		// Recovery: only p is protected; reclaim everything else, find a
		// better order, and retry this scenario once. Skip when the live
		// table is itself huge — sifting it would cost more than the
		// remaining budget and a blown-up p is rarely rescued.
		if cerr := s.ctx.Err(); cerr != nil {
			return cerr
		}
		m.GC()
		if m.NumNodes() <= 1<<20 {
			m.Reorder(bdd.ReorderConfig{MaxVars: 12, MaxSwaps: 1024})
			s.sol.Reorders++
			if cerr := s.ctx.Err(); cerr != nil {
				return cerr
			}
			err = attempt()
		}
	}
	if err != nil {
		return err
	}
	s.trackPeak()
	if s.p == bdd.False {
		return ErrUnrepairable
	}
	if m.NumNodes() > s.opts.GCThreshold {
		m.GC()
	}
	return nil
}

func (s *solver) trackPeak() {
	if n := s.m.NumNodes(); n > s.peak {
		s.peak = n
	}
}

// buildHoles allocates parameter variables and domain constraints for every
// hole of the routing. Holes are ordered by hop distance of their node from
// the destination (closest first): deliverability constraints chain outward
// from the destination, and grouping interacting variables keeps the
// intermediate BDDs smaller under the fixed variable order.
func (s *solver) buildHoles() error {
	m := s.m
	_, dist := s.net.ShortestPathTree(s.r.Dest())
	holes := s.r.Holes()
	sort.SliceStable(holes, func(i, j int) bool {
		di, dj := dist[holes[i].Key.At], dist[holes[j].Key.At]
		if di != dj {
			return di < dj
		}
		if holes[i].Key.At != holes[j].Key.At {
			return holes[i].Key.At < holes[j].Key.At
		}
		return holes[i].Key.In < holes[j].Key.In
	})
	for _, h := range holes {
		at := h.Key.At
		cands := s.net.IncidentEdges(at)
		if len(cands) == 0 {
			return fmt.Errorf("encode: hole %v at isolated node", h.Key)
		}
		width := bvec.WidthFor(len(cands))
		listLen := h.ListLen
		if listLen > len(cands) {
			listLen = len(cands) // longer lists cannot add coverage
		}
		ho := hole{key: h.Key, cands: append([]network.EdgeID(nil), cands...)}
		domain := bdd.True
		for i := 0; i < listLen; i++ {
			vec := bvec.New(m, fmt.Sprintf("h_%d_%d_s%d_b", h.Key.At, h.Key.In, i), width)
			ho.slots = append(ho.slots, vec)
			domain = m.And(domain, vec.LessConst(uint(len(cands))))
		}
		// Paper's V_{v,e}: the first slot must not encode the in-edge —
		// unless it is the only candidate (degenerate leaf bounce-back).
		if !s.net.IsLoopback(h.Key.In) && len(cands) > 1 {
			if idx, ok := candIndex(ho.cands, h.Key.In); ok {
				domain = m.And(domain, m.Not(ho.slots[0].EqConst(uint(idx))))
			}
		}
		ho.domain = domain
		s.holes = append(s.holes, ho)
	}
	for i := range s.holes {
		s.holeAt[s.holes[i].key] = &s.holes[i]
	}
	return nil
}

func candIndex(cands []network.EdgeID, e network.EdgeID) (int, bool) {
	for i, c := range cands {
		if c == e {
			return i, true
		}
	}
	return -1, false
}

// buildStates enumerates the (in-edge, node) state space.
func (s *solver) buildStates() {
	s.states = s.r.AllKeys()
	s.stateID = make(map[routing.Key]int, len(s.states))
	for i, k := range s.states {
		s.stateID[k] = i
	}
}

// scenarioConstraint returns the conjunction over all sources connected to
// the destination in G∖F of the deliverability of the source under F, as a
// BDD over the hole variables. The boolean result reports whether symbolic
// evaluation was required.
func (s *solver) scenarioConstraint(F network.EdgeSet) (bdd.Ref, bool, error) {
	net := s.net
	dest := s.r.Dest()
	reach := net.ReachableWithout(dest, F)

	// Fast path: concrete traces. Sources whose traces never touch a hole
	// either deliver (no constraint) or fail (unsatisfiable: the holes
	// cannot influence that trace).
	var symbolicSources []network.NodeID
	for _, src := range net.Nodes() {
		if src == dest || !reach[src] {
			continue
		}
		res := trace.Run(s.r, F, src)
		switch res.Outcome {
		case trace.Delivered:
			// no constraint
		case trace.HitHole:
			symbolicSources = append(symbolicSources, src)
		default:
			// Dropped or looped without any hole involvement: no hole
			// assignment can fix this trace.
			return bdd.False, false, nil
		}
	}
	if len(symbolicSources) == 0 {
		return bdd.True, false, nil
	}

	d, err := s.fixpoint(F)
	if err != nil {
		return bdd.False, true, err
	}
	m := s.m
	out := bdd.True
	for _, src := range symbolicSources {
		key := routing.Key{In: net.Loopback(src), At: src}
		out = m.And(out, d[s.stateID[key]])
		if out == bdd.False {
			break
		}
	}
	return out, true, nil
}

// fixpoint computes D_F for every state: the BDD over hole variables under
// which a packet in that state reaches the destination under scenario F.
func (s *solver) fixpoint(F network.EdgeSet) ([]bdd.Ref, error) {
	m := s.m
	d := make([]bdd.Ref, len(s.states))
	for i := range d {
		d[i] = bdd.False
	}

	// trans[i] enumerates the candidate transitions of state i under F:
	// (selection condition over holes, successor state id or -1 for dest).
	trans := make([][]edgeOutT, len(s.states))
	for i, key := range s.states {
		trans[i] = s.transitions(key, F)
	}

	for changed := true; changed; {
		changed = false
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		// Iterate states in reverse BFS-ish order is an optimisation; plain
		// sweeps converge in at most |states| rounds and the per-round cost
		// is dominated by BDD work, so keep it simple.
		for i := range s.states {
			cur := d[i]
			if cur == bdd.True {
				continue
			}
			acc := cur
			for _, t := range trans[i] {
				if t.cond == bdd.False {
					continue
				}
				var target bdd.Ref
				if t.succ < 0 {
					target = bdd.True
				} else {
					target = d[t.succ]
				}
				if target == bdd.False {
					continue
				}
				acc = m.Or(acc, m.And(t.cond, target))
				if acc == bdd.True {
					break
				}
			}
			if acc != cur {
				d[i] = acc
				changed = true
			}
		}
	}
	return d, nil
}

// transitions lists the possible forwarding moves from state key under F,
// with their symbolic selection conditions.
func (s *solver) transitions(key routing.Key, F network.EdgeSet) []edgeOutT {
	net := s.net
	dest := s.r.Dest()
	succOf := func(o network.EdgeID) int {
		nv := net.Other(o, key.At)
		if nv == dest {
			return -1
		}
		return s.stateID[routing.Key{In: o, At: nv}]
	}

	if h, ok := s.holeAt[key]; ok {
		var out []edgeOutT
		for idx, o := range h.cands {
			if F.Has(o) {
				continue
			}
			cond := s.holeSelects(h, idx, F)
			if cond == bdd.False {
				continue
			}
			out = append(out, edgeOutT{cond: cond, succ: succOf(o)})
		}
		return out
	}

	prio, ok := s.r.Get(key.In, key.At)
	if !ok {
		return nil // missing entry: packet dropped
	}
	for _, o := range prio {
		if !F.Has(o) {
			return []edgeOutT{{cond: bdd.True, succ: succOf(o)}}
		}
	}
	return nil // all priorities failed: dropped
}

// edgeOutT is a transition option: fire condition and successor state.
type edgeOutT struct {
	cond bdd.Ref
	succ int // -1 = destination
}

// holeSelects returns the BDD over the hole's slot variables under which the
// skipping semantics selects candidate idx under scenario F: some slot i
// equals idx while all earlier slots hold failed candidates.
func (s *solver) holeSelects(h *hole, idx int, F network.EdgeSet) bdd.Ref {
	m := s.m
	var failedIdx []uint
	for i, c := range h.cands {
		if F.Has(c) {
			failedIdx = append(failedIdx, uint(i))
		}
	}
	out := bdd.False
	prefixFailed := bdd.True
	for i, slot := range h.slots {
		here := m.And(prefixFailed, slot.EqConst(uint(idx)))
		out = m.Or(out, here)
		if i+1 < len(h.slots) {
			prefixFailed = m.And(prefixFailed, slot.MemberOf(failedIdx))
			if prefixFailed == bdd.False {
				break
			}
		}
	}
	return out
}

// extract decodes one satisfying assignment of p into concrete priority
// lists for every hole.
func (s *solver) extract(p bdd.Ref) (*routing.Routing, error) {
	m := s.m
	assign := m.AnySat(p)
	if assign == nil {
		return nil, ErrUnrepairable
	}
	filled := s.r.Clone()
	for i := range s.holes {
		h := &s.holes[i]
		prio := make([]network.EdgeID, 0, len(h.slots))
		for _, slot := range h.slots {
			idx := slot.Decode(assign)
			if int(idx) >= len(h.cands) {
				return nil, fmt.Errorf("encode: extracted slot index %d out of range (domain violated)", idx)
			}
			prio = append(prio, h.cands[idx])
		}
		if err := filled.Set(h.key.In, h.key.At, prio); err != nil {
			return nil, fmt.Errorf("encode: extracted invalid entry: %w", err)
		}
	}
	return filled, nil
}

// Filling is one synthesised assignment of priority lists to holes.
type Filling map[routing.Key][]network.EdgeID

// Enumerate returns up to max distinct hole fillings that achieve perfect
// k-resilience (all of them when max <= 0 or fewer exist). It reproduces the
// paper's Figure 2 observation that the BDD compactly stores *all* resilient
// routings.
func Enumerate(ctx context.Context, r *routing.Routing, k int, opts Options, max int) ([]Filling, error) {
	if k < 0 {
		return nil, fmt.Errorf("encode: negative resilience level %d", k)
	}
	s, release := newSolver(ctx, r, k, opts)
	defer release()
	var out []Filling
	err := s.m.Protect(func() error {
		if err := s.init(); err != nil {
			return err
		}
		if err := s.encodeAll(); err != nil {
			return err
		}
		out = s.enumerate(s.p, max)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enumerate expands the satisfying assignments of p into concrete fillings.
func (s *solver) enumerate(p bdd.Ref, max int) []Filling {
	var out []Filling
	var holeVars []bdd.Var
	for _, h := range s.holes {
		for _, slot := range h.slots {
			holeVars = append(holeVars, slot.Bits()...)
		}
	}
	s.m.AllSat(p, func(a bdd.Assignment) bool {
		// Expand don't-care hole bits.
		var free []bdd.Var
		for _, v := range holeVars {
			if _, ok := a[v]; !ok {
				free = append(free, v)
			}
		}
		full := make(bdd.Assignment, len(holeVars))
		for k, v := range a {
			full[k] = v
		}
		for comb := 0; comb < 1<<len(free); comb++ {
			for i, v := range free {
				full[v] = comb&(1<<i) != 0
			}
			f := make(Filling, len(s.holes))
			for i := range s.holes {
				h := &s.holes[i]
				prio := make([]network.EdgeID, len(h.slots))
				for j, slot := range h.slots {
					prio[j] = h.cands[slot.Decode(full)]
				}
				f[h.key] = prio
			}
			out = append(out, f)
			if max > 0 && len(out) >= max {
				return false
			}
		}
		return true
	})
	return out
}

// countSolutions normalises SatCount to the hole parameter variables only
// (p does not depend on any other variable).
func (s *solver) countSolutions(p bdd.Ref) float64 {
	holeBits := 0
	for _, h := range s.holes {
		for _, slot := range h.slots {
			holeBits += slot.Width()
		}
	}
	total := s.m.SatCount(p)
	return total / math.Pow(2, float64(s.m.NumVars()-holeBits))
}
