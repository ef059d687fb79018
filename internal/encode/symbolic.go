package encode

import (
	"context"
	"fmt"
	"math"

	"syrep/internal/bdd"
	"syrep/internal/bvec"
	"syrep/internal/network"
	"syrep/internal/routing"
)

// This file implements the literal BDD formulation of Section III-A with
// symbolic failure vectors f̄_1..f̄_k and universal quantification — the
// direct extension of [26]'s encoding that the paper presents. It is
// exponentially more expensive than the scenario engine and exists for
// fidelity: it reproduces Figure 2, and it cross-checks the scenario engine
// on small networks (both must accept exactly the same hole fillings).
//
// Variable order (crucial for the fixpoint's Replace):
//
//	curIn0 nextIn0 curIn1 nextIn1 ... curV0 nextV0 ... f̄_1 ... f̄_k holes...
//
// Interleaving current and next state bits keeps the cur→next renaming
// order-preserving.

// Symbolic is the built symbolic encoding: the formula P over the hole
// parameters plus everything needed to inspect or decode it.
type Symbolic struct {
	// M is the BDD manager owning P.
	M *bdd.Manager
	// P encodes all hole fillings that make the routing perfectly
	// k-resilient (paper's 𝒫). Its support is exactly the hole variables.
	P bdd.Ref
	// Holes lists the symbolic priority-list parameters, in routing hole
	// order. Slot values are global edge ids.
	Holes []SymbolicHole
	// Iterations is the number of fixpoint rounds needed for D.
	Iterations int

	r *routing.Routing
	k int
}

// SymbolicHole is one synthesised entry: slots encode global edge ids.
type SymbolicHole struct {
	Key   routing.Key
	Slots []bvec.Vec
}

// BuildSymbolic constructs the paper's formula P for the holes of r. It is
// intended for small networks (the failure tuples are enumerated to build
// the connectivity guard Γ, costing O(|E|^k · |V|)).
func BuildSymbolic(ctx context.Context, r *routing.Routing, k int, opts Options) (*Symbolic, error) {
	if k < 0 {
		return nil, fmt.Errorf("encode: negative resilience level %d", k)
	}
	opts = opts.withDefaults()
	m := bdd.NewWithConfig(bdd.Config{NodeLimit: opts.NodeLimit})
	if opts.ManagerHook != nil {
		opts.ManagerHook(m)
	}
	m.Observe(opts.Counters)
	s := &Symbolic{M: m, r: r, k: k}
	// The returned Manager outlives ctx, so it only polls ctx while building.
	m.SetContext(ctx)
	err := m.Protect(func() error { return s.build(ctx) })
	m.SetContext(nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Symbolic) build(ctx context.Context) error {
	m := s.M
	net := s.r.Network()
	dest := s.r.Dest()
	numE := net.NumEdges()
	numV := net.NumNodes()
	numReal := net.NumRealEdges()

	weState := bvec.WidthFor(numE)
	wv := bvec.WidthFor(numV)
	wf := bvec.WidthFor(numReal)

	curIn, nextIn := bvec.Interleave(m, "curIn", "nextIn", weState)
	curV, nextV := bvec.Interleave(m, "curV", "nextV", wv)
	fvecs := make([]bvec.Vec, s.k)
	for t := range fvecs {
		fvecs[t] = bvec.New(m, fmt.Sprintf("f%d_", t+1), wf)
	}

	// Hole parameters: slots over global edge ids restricted to candidates.
	domains := bdd.True
	for _, h := range s.r.Holes() {
		cands := net.IncidentEdges(h.Key.At)
		listLen := h.ListLen
		if listLen > len(cands) {
			listLen = len(cands)
		}
		sh := SymbolicHole{Key: h.Key}
		candIDs := make([]uint, len(cands))
		for i, c := range cands {
			candIDs[i] = uint(c)
		}
		for i := 0; i < listLen; i++ {
			vec := bvec.New(m, fmt.Sprintf("p_%d_%d_s%d_", h.Key.At, h.Key.In, i), wf)
			sh.Slots = append(sh.Slots, vec)
			domains = m.And(domains, vec.MemberOf(candIDs))
		}
		if !net.IsLoopback(h.Key.In) && len(cands) > 1 {
			domains = m.And(domains, m.Not(sh.Slots[0].EqConst(uint(h.Key.In))))
		}
		s.Holes = append(s.Holes, sh)
	}
	// The fixpoint loop below GCs under node pressure; domains must survive
	// until the Γ conjunction at the end.
	m.Ref(domains)

	// failed(e) := ⋁_t f̄_t = e, for a concrete real edge e.
	failed := func(e network.EdgeID) bdd.Ref {
		out := bdd.False
		for _, fv := range fvecs {
			out = m.Or(out, fv.EqConst(uint(e)))
		}
		return out
	}
	// failedVec(x̄) := ⋁_t f̄_t = x̄, for a symbolic slot.
	failedVec := func(x bvec.Vec) (bdd.Ref, error) {
		out := bdd.False
		for _, fv := range fvecs {
			eq, err := x.Eq(fv)
			if err != nil {
				return bdd.False, err
			}
			out = m.Or(out, eq)
		}
		return out, nil
	}

	holeAt := make(map[routing.Key]*SymbolicHole)
	for i := range s.Holes {
		holeAt[s.Holes[i].Key] = &s.Holes[i]
	}

	// Transition relation T (paper's 𝒯): current (in, v) forwards to
	// (out, v') where out is the first non-failed priority.
	transition := bdd.False
	for _, key := range s.r.AllKeys() {
		if err := ctx.Err(); err != nil {
			return err
		}
		stateHere := m.And(curIn.EqConst(uint(key.In)), curV.EqConst(uint(key.At)))

		// sel(o) := skipping semantics selects out-edge o.
		var choice bdd.Ref = bdd.False
		if h, ok := holeAt[key]; ok {
			for _, o := range net.IncidentEdges(key.At) {
				nv := net.Other(o, key.At)
				sel := bdd.False
				prefix := bdd.True
				for i, slot := range h.Slots {
					sel = m.Or(sel, m.And(prefix, slot.EqConst(uint(o))))
					if i+1 < len(h.Slots) {
						fv, err := failedVec(slot)
						if err != nil {
							return err
						}
						prefix = m.And(prefix, fv)
					}
				}
				move := m.AndN(
					nextIn.EqConst(uint(o)),
					nextV.EqConst(uint(nv)),
					m.Not(failed(o)),
					sel,
				)
				choice = m.Or(choice, move)
			}
		} else if prio, ok := s.r.Get(key.In, key.At); ok {
			prefix := bdd.True
			for _, o := range prio {
				nv := net.Other(o, key.At)
				move := m.AndN(
					nextIn.EqConst(uint(o)),
					nextV.EqConst(uint(nv)),
					m.Not(failed(o)),
					prefix,
				)
				choice = m.Or(choice, move)
				prefix = m.And(prefix, failed(o))
			}
		}
		transition = m.Or(transition, m.And(stateHere, choice))
	}
	m.Ref(transition)

	// Deliverability fixpoint D (paper's 𝒟): D_0 = (curV = dest).
	var nextCubeVars []bdd.Var
	nextCubeVars = append(nextCubeVars, nextIn.Bits()...)
	nextCubeVars = append(nextCubeVars, nextV.Bits()...)
	nextCube := m.NewCube(nextCubeVars...)

	pairs := make(map[bdd.Var]bdd.Var)
	for i, v := range curIn.Bits() {
		pairs[v] = nextIn.Bits()[i]
	}
	for i, v := range curV.Bits() {
		pairs[v] = nextV.Bits()[i]
	}
	toNext := m.NewReplacement(pairs)

	d := curV.EqConst(uint(dest))
	m.Ref(d)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.Iterations++
		dNext := m.Replace(d, toNext)
		step := m.AndExists(transition, dNext, nextCube)
		nd := m.Or(d, step)
		if nd == d {
			break
		}
		m.Deref(d)
		d = nd
		m.Ref(d)
		if m.NumNodes() > 1<<18 {
			m.GC()
		}
	}

	// Γ and the final universal quantification over failures and sources.
	var fVars []bdd.Var
	for _, fv := range fvecs {
		fVars = append(fVars, fv.Bits()...)
	}
	fCube := m.NewCube(fVars...)

	p := domains
	for _, src := range net.Nodes() {
		if src == dest {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		dsAssign := curIn.Assign(uint(net.Loopback(src)))
		for k, v := range curV.Assign(uint(src)) {
			dsAssign[k] = v
		}
		dSrc := m.Restrict(d, dsAssign)
		gamma := s.gamma(fvecs, src)
		p = m.And(p, m.ForAll(m.Imp(gamma, dSrc), fCube))
		if p == bdd.False {
			break
		}
	}
	m.Deref(transition)
	m.Deref(d)
	m.Deref(domains)
	s.P = m.Ref(p)
	return nil
}

// gamma builds Γ(src, f̄): the failure-vector assignments that are valid
// encodings (every f̄_t below |E_real|) and keep src connected to the
// destination. Built by enumerating all |E_real|^k failure tuples, which
// bounds this engine to small networks.
func (s *Symbolic) gamma(fvecs []bvec.Vec, src network.NodeID) bdd.Ref {
	m := s.M
	net := s.r.Network()
	dest := s.r.Dest()
	numReal := net.NumRealEdges()

	out := bdd.False
	tuple := make([]int, len(fvecs))
	var rec func(t int)
	rec = func(t int) {
		if t == len(fvecs) {
			F := network.NewEdgeSet(numReal)
			for _, e := range tuple {
				F.Add(network.EdgeID(e))
			}
			if !net.ConnectedWithout(src, dest, F) {
				return
			}
			term := bdd.True
			for i, fv := range fvecs {
				term = m.And(term, fv.EqConst(uint(tuple[i])))
			}
			out = m.Or(out, term)
			return
		}
		for e := 0; e < numReal; e++ {
			tuple[t] = e
			rec(t + 1)
		}
	}
	rec(0)
	if len(fvecs) == 0 {
		// k = 0: no failure variables; connectivity without failures.
		if net.ConnectedWithout(src, dest, network.NewEdgeSet(numReal)) {
			return bdd.True
		}
		return bdd.False
	}
	return out
}

// NumSolutions counts the distinct hole fillings accepted by P.
func (s *Symbolic) NumSolutions() float64 {
	holeBits := 0
	for _, h := range s.Holes {
		for _, slot := range h.Slots {
			holeBits += slot.Width()
		}
	}
	return s.M.SatCount(s.P) / math.Pow(2, float64(s.M.NumVars()-holeBits))
}

// Extract decodes one satisfying filling into a hole-free routing, or
// ErrUnrepairable when P is unsatisfiable.
func (s *Symbolic) Extract() (*routing.Routing, error) {
	assign := s.M.AnySat(s.P)
	if assign == nil {
		return nil, ErrUnrepairable
	}
	filled := s.r.Clone()
	for _, h := range s.Holes {
		prio := make([]network.EdgeID, len(h.Slots))
		for i, slot := range h.Slots {
			prio[i] = network.EdgeID(slot.Decode(assign))
		}
		if err := filled.Set(h.Key.In, h.Key.At, prio); err != nil {
			return nil, fmt.Errorf("encode: symbolic extraction produced invalid entry: %w", err)
		}
	}
	return filled, nil
}

// Enumerate expands up to max satisfying fillings (all when max <= 0).
func (s *Symbolic) Enumerate(max int) []Filling {
	var holeVars []bdd.Var
	for _, h := range s.Holes {
		for _, slot := range h.Slots {
			holeVars = append(holeVars, slot.Bits()...)
		}
	}
	var out []Filling
	s.M.AllSat(s.P, func(a bdd.Assignment) bool {
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
			f := make(Filling, len(s.Holes))
			for _, h := range s.Holes {
				prio := make([]network.EdgeID, len(h.Slots))
				for j, slot := range h.Slots {
					prio[j] = network.EdgeID(slot.Decode(full))
				}
				f[h.Key] = prio
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

// SolveSymbolic runs the full symbolic pipeline: build P, extract a filling.
func SolveSymbolic(ctx context.Context, r *routing.Routing, k int, opts Options) (*Solution, error) {
	s, err := BuildSymbolic(ctx, r, k, opts)
	if err != nil {
		return nil, err
	}
	filled, err := s.Extract()
	if err != nil {
		return nil, err
	}
	return &Solution{
		Routing:      filled,
		NumSolutions: s.NumSolutions(),
		PeakNodes:    s.M.NumNodes(),
	}, nil
}
