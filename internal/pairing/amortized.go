// Amortized pairing engine: the Jacobian Miller-loop step machinery shared
// by Pair, MultiPair and FixedPair.
//
// Every Miller-loop variant in this package walks the same addition chain —
// the binary expansion of the group order q — and differs only in what it
// does with the line function of each step. The line through the running
// point V (and its tangent, for doublings) evaluated at the distorted point
// φ(Q) = (−x_Q, i·y_Q) always has the shape
//
//	l(φQ) = (a + b·x_Q) + (c·y_Q)·i,   a, b, c ∈ F_p,
//
// where (a, b, c) depend only on V and P — not on Q. millerVars computes
// these generic coefficients while advancing V with inversion-free Jacobian
// formulas (derived at doubleStep and addStep; the doubling is the b = 0
// one of y² = x³ + x, four squarings and six multiplications with its
// tangent); each step's overall F_p* scale is arbitrary because the final
// exponentiation (p²−1)/q annihilates F_p*.
//
// Two consumers:
//
//   - MultiPair runs n walks in lock-step (millerProduct), feeding (a, b, c)
//     straight into one accumulator with one squaring per iteration and a
//     single final exponentiation; Pair is its one-pair case;
//   - FixedPair runs the walk once at construction, normalizes each line by
//     1/c (another F_p* scale) to the two-coefficient form
//     (α·x_Q + β) + y_Q·i, and replays the recorded program against any
//     second argument with no point arithmetic at all.
package pairing

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/gf"
	"repro/internal/parallel"
)

// millerVars is the running state of one Miller-loop traversal: the affine
// base P — the point's own limbs, read in place — the running point V in
// Jacobian coordinates, and scratch storage reused across steps, all carved
// from one slab. All coordinates are Montgomery limb vectors — the entire walk
// runs on internal/fp with no big.Int arithmetic and no heap allocation per
// step.
type millerVars struct {
	F       *fp.Field //cryptolint:public (field parameters)
	xP, yP  []uint64  // affine base point P
	X, Y, Z []uint64  // running point V (Jacobian)

	t1, t2, t3, t4, t5, t6 []uint64
}

// newMillerVars starts a walk at V = P for a finite point P.
func newMillerVars(F *fp.Field, pt *curve.Point) *millerVars {
	w := F.Limbs()
	slab := make([]uint64, 9*w)
	elt := func(k int) []uint64 { return slab[k*w : (k+1)*w : (k+1)*w] }
	mv := &millerVars{
		F: F, X: elt(0), Y: elt(1), Z: elt(2),
		t1: elt(3), t2: elt(4), t3: elt(5), t4: elt(6), t5: elt(7), t6: elt(8),
	}
	mv.xP, mv.yP = pt.Mont()
	mv.restart()
	return mv
}

// restart sets V = P.
//
//cryptolint:hotpath
func (m *millerVars) restart() {
	m.F.Set(m.X, m.xP)
	m.F.Set(m.Y, m.yP)
	m.F.SetOne(m.Z)
}

// doubleStep advances V ← 2V and writes the tangent-line coefficients into
// (a, b, c). It reports whether a line was produced — vertical tangents
// (2-torsion, unreachable from the odd-order subgroup) and V = O contribute
// only an F_p* factor and emit nothing.
//
// Derivation (V = (X, Y, Z), M = 3X² + Z⁴, S = 4XY², Z₃ = 2YZ, tangent
// scaled by 2YZ³): l = [M·X − 2Y² + M·Z²·x_Q] + [Z₃·Z²·y_Q]·i, so
// a = M·X − 2Y², b = M·Z², c = Z₃·Z², and 2V = (M² − 2S,
// M·(S − X₃) − 8Y⁴, Z₃). On y² = x³ + x the running point satisfies
// Y² = X·(A + C) with A = X², C = Z⁴, so with E = A − C
//
//	X₃ = E², Y₃ = E·(E² + 8AC), a = X·E, b = (3A + C)·Z²,
//
// the same field elements, without Y² or Y⁴: four squarings and six
// multiplications (DESIGN §5b). The products are ordered so that each is
// followed by one that does not wait for it.
//
//cryptolint:hotpath
//cryptolint:vartime (branches on the exceptional points V = O and 2V = O, unreachable from the odd-order subgroup and public where reached)
func (m *millerVars) doubleStep(a, b, c []uint64) bool {
	F := m.F
	if F.IsZero(m.Z) {
		return false
	}
	if F.IsZero(m.Y) {
		// 2-torsion: vertical tangent, 2V = O.
		F.SetZero(m.Z)
		return false
	}
	xx, zz, z4, e, k, w := m.t1, m.t2, m.t3, m.t4, m.t5, m.t6
	F.Square(xx, m.X) // A = X²
	F.Square(zz, m.Z)
	F.Mul(m.Z, m.Y, m.Z) // Z₃ = 2YZ
	F.Double(m.Z, m.Z)
	F.Square(z4, zz)  // C = Z⁴
	F.Mul(c, m.Z, zz) // c = Z₃·Z²
	F.Sub(e, xx, z4)  // E = A − C
	F.Double(k, xx)   // 3A + C
	F.Add(k, k, xx)
	F.Add(k, k, z4)
	F.Mul(w, xx, z4) // 8AC
	F.Double(w, w)
	F.Double(w, w)
	F.Double(w, w)
	F.Mul(a, m.X, e) // a = X·E
	F.Square(m.X, e) // X₃ = E²
	F.Add(w, w, m.X)
	F.Mul(b, k, zz)  // b = (3A + C)·Z²
	F.Mul(m.Y, e, w) // Y₃ = E·(E² + 8AC)
	return true
}

// addStep advances V ← V + P and writes the chord-line coefficients into
// (a, b, c), reporting whether a line was produced. V = O restarts the walk
// at P; V = −P yields the vertical chord (skipped, V becomes O); V = P
// degenerates to a tangent doubling. Only the last case and the generic
// chord emit a line.
//
// Generic chord (H = x_P·Z² − X, R = y_P·Z³ − Y, Z₃ = ZH, chord scaled by
// Z₃): l = [R·x_P − Z₃·y_P + R·x_Q] + [Z₃·y_Q]·i, so a = R·x_P − Z₃·y_P,
// b = R, c = Z₃.
//
//cryptolint:hotpath
//cryptolint:vartime (branches on the exceptional points V = O, V = P and V = −P, unreachable from the odd-order subgroup and public where reached)
func (m *millerVars) addStep(a, b, c []uint64) bool {
	F := m.F
	if F.IsZero(m.Z) {
		// V = O: the "line" through O and P is the vertical at P, an F_p*
		// factor — restart at P.
		m.restart()
		return false
	}
	zz := m.t1
	F.Square(zz, m.Z)
	u2 := m.t2
	F.Mul(u2, m.xP, zz)
	s2 := m.t3
	F.Mul(s2, m.yP, zz)
	F.Mul(s2, s2, m.Z)
	h := u2 // H = x_P·Z² − X
	F.Sub(h, u2, m.X)
	r := s2 // R = y_P·Z³ − Y
	F.Sub(r, s2, m.Y)

	switch {
	case F.IsZero(h) && F.IsZero(r):
		// V = P: the chord degenerates to the tangent at P, so this addition
		// is a doubling from the affine representative (x_P, y_P, 1).
		// (Unreachable for odd-order P — the running multiplier never
		// revisits 1 — kept so the walk matches the affine oracle on
		// arbitrary curve points.)
		m.restart()
		return m.doubleStep(a, b, c)
	case F.IsZero(h):
		// V = −P: vertical line, an F_p* factor — V + P = O.
		F.SetZero(m.Z)
		return false
	default:
		hh := m.t4
		F.Square(hh, h)
		hhh := m.t5
		F.Mul(hhh, hh, h)
		xh2 := m.t6
		F.Mul(xh2, m.X, hh)

		F.Mul(m.Z, m.Z, h) // Z₃ = Z·H

		F.Mul(a, r, m.xP)
		F.Mul(b, m.Z, m.yP) // scratch use of b for Z₃·y_P
		F.Sub(a, a, b)
		F.Set(b, r)
		F.Set(c, m.Z)

		F.Square(m.X, r)
		F.Sub(m.X, m.X, hhh)
		F.Sub(m.X, m.X, xh2)
		F.Sub(m.X, m.X, xh2)
		F.Sub(xh2, xh2, m.X)
		F.Mul(xh2, xh2, r)
		F.Mul(hhh, hhh, m.Y)
		F.Sub(m.Y, xh2, hhh)
		return true
	}
}

// MultiPair computes the pairing product ∏ᵢ ê(Pᵢ, Qᵢ) with one shared
// Miller loop and a single final exponentiation. The accumulator squaring —
// one per loop iteration regardless of n — and the final exponentiation are
// shared across all pairs, so n-pair products cost far less than n calls to
// Pair; product-form checks (BLS verification, batched share proofs) are the
// intended callers. Pairs with an infinity member contribute the identity,
// exactly as in Pair; an empty product is the identity. The shared squaring
// is sound because ∏fᵢ² = (∏fᵢ)²: the per-pair Miller accumulators can be
// folded into one before squaring.
func (pp *Params) MultiPair(ps, qs []*curve.Point) (*GT, error) {
	if len(ps) != len(qs) {
		return nil, fmt.Errorf("pairing: MultiPair got %d first arguments and %d second", len(ps), len(qs))
	}
	F := pp.field.Fp()
	live := make([]livePair, 0, len(ps))
	for i := range ps {
		if ps[i] == nil || qs[i] == nil {
			return nil, fmt.Errorf("pairing: MultiPair pair %d is nil", i)
		}
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue // ê(P, O) = ê(O, Q) = 1
		}
		live = append(live, newLivePair(F, ps[i], qs[i]))
	}
	engineCounters.multiCalls.Add(1)
	engineCounters.multiPairs.Add(uint64(len(ps)))
	if len(live) == 0 {
		return pp.One(), nil
	}

	// Independent Miller walks split across workers. Chunking trades the
	// single shared accumulator squaring for one squaring per chunk —
	// profitable only when the chunks actually run on separate cores and
	// each worker keeps at least two pairs, hence the len/2 bound. The
	// split is exact: ∏ₖ (chunk product)ₖ = ∏ᵢ fᵢ because every fᵢ is the
	// same field element regardless of which accumulator it folds into,
	// and the index-ordered merge makes the result bit-identical across
	// schedules (and to the single-chunk walk).
	var f *gf.Element
	if w := parallel.Workers(len(live) / 2); w <= 1 {
		f = pp.millerProduct(live, nil)
	} else {
		fs := make([]*gf.Element, w)
		parallel.Fan(w, func(k int) {
			lo, hi := k*len(live)/w, (k+1)*len(live)/w
			fs[k] = pp.millerProduct(live[lo:hi], nil)
		})
		f = fs[0]
		for _, fk := range fs[1:] {
			f.Mul(f, fk)
		}
	}
	return &GT{v: pp.finalExp(f, nil), pp: pp}, nil
}

// livePair is one contributing (P, Q) pair of a MultiPair product: the
// Miller walk state for P and the distorted second argument's coordinates,
// y_Q nil for an x-only Q (PairX).
type livePair struct {
	mv     *millerVars
	xQ, yQ []uint64
}

func newLivePair(F *fp.Field, p1 *curve.Point, q1 curve.EvalArg) livePair {
	lp := livePair{mv: newMillerVars(F, p1)}
	lp.xQ, lp.yQ = q1.Mont()
	return lp
}

// millerProduct runs the lock-step shared-squaring Miller loop over live and
// returns the un-exponentiated accumulator ∏ᵢ fᵢ: in F_p² for a nil s, and
// for an s in F_p[j]/(j² + s), where a line (a + b·x_Q) + (c·y_Q)·i is
// (a + b·x_Q) + c·j — then live is the one pair of an x-only Q of that s,
// or of a Q with y_Q² = s (Pair). That one-pair walk runs on the lane engine
// where the field has it (walkLanes), and on the scalar kernels otherwise
// or when walkLanes declines.
func (pp *Params) millerProduct(live []livePair, s []uint64) *gf.Element {
	if len(live) == 1 && s != nil {
		if f, ok := pp.walkLanes(&live[0], s); ok {
			return f
		}
		live[0].mv.restart()
	}
	return pp.millerScalar(live, s)
}

// millerScalar is millerProduct on the scalar kernels: a squaring of the
// accumulator, doubleStep and its line, then addStep and its line at a set
// bit of q, for each bit below the top one.
func (pp *Params) millerScalar(live []livePair, s []uint64) *gf.Element {
	fld := pp.field
	F := fld.Fp()
	f := fld.One()
	line := fld.One()
	a, b, c := F.NewElt(), F.NewElt(), F.NewElt()
	lr, li := F.NewElt(), F.NewElt()
	mulLine := func(lp *livePair) {
		F.Mul(lr, b, lp.xQ)
		F.Add(lr, lr, a)
		if s != nil {
			f.MulJ(f, fld.SetMont(line, lr, c), s)
			return
		}
		F.Mul(li, c, lp.yQ)
		f.Mul(f, fld.SetMont(line, lr, li))
	}
	n := pp.q
	for i := n.BitLen() - 2; i >= 0; i-- {
		// shared: (∏fⱼ)² = ∏fⱼ²
		if s != nil {
			f.SquareJ(f, s)
		} else {
			f.Square(f)
		}
		for j := range live {
			if live[j].mv.doubleStep(a, b, c) {
				mulLine(&live[j])
			}
		}
		if n.Bit(i) == 1 {
			for j := range live {
				if live[j].mv.addStep(a, b, c) {
					mulLine(&live[j])
				}
			}
		}
	}
	return f
}

// walkLanes is millerScalar's one-pair walk in F_p[j]/(j² + s) with the
// doubling steps on the lane engine: each run of them down to the next set
// bit of q is one fp.Field.WalkJ call (the same squares, doublings and
// tangent lines as SquareJ, doubleStep and MulJ, four lane products a
// step), and each addition runs on the scalar kernels between two runs. It
// reports false where the field has no lanes, and where a run met V = O or
// 2V = O, which a point of G1 never does: WalkJ leaves Z = 0 behind such a
// step, and the caller then walks again on the scalar kernels, whose
// exceptional-point branches give the value every input is owed. The F_p*
// factors of the lines are the scalar walk's, so the value is its value.
//
//cryptolint:vartime (branches on a run's having met V = O or 2V = O, unreachable from the odd-order subgroup and public where reached)
func (pp *Params) walkLanes(lp *livePair, s []uint64) (*gf.Element, bool) {
	fld := pp.field
	F := fld.Fp()
	if !F.Lanes() {
		return nil, false
	}
	m := lp.mv
	f := fld.One()
	line := fld.One()
	a, b, c, l := F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt()
	n := pp.q
	for i := n.BitLen() - 2; i >= 0; i-- {
		lo := i
		for lo > 0 && n.Bit(lo) == 0 {
			lo--
		}
		f.WalkJ(m.X, m.Y, m.Z, lp.xQ, s, i-lo+1)
		if F.IsZero(m.Z) {
			return nil, false
		}
		i = lo
		if n.Bit(i) == 1 && m.addStep(a, b, c) {
			F.Mul(l, b, lp.xQ)
			F.Add(l, l, a)
			f.MulJ(f, fld.SetMont(line, l, c), s)
		}
	}
	return f, true
}

// A FixedPair program step squares the accumulator (doubling steps) if its
// kind has stepSquare, then — unless the step's line was vertical —
// multiplies by the next line (α·x_Q + β) + y_Q·i if it has stepLine: the
// layout fp.Field.ReplayJ reads.
const (
	stepSquare = 1
	stepLine   = 2
)

// FixedPair is a fixed-first-argument pairing evaluator: NewFixedPair walks
// the Miller loop of ê(P, ·) once, records every line's coefficients
// normalized to the monic form (α·x_Q + β) + y_Q·i (the 1/c scale is another
// F_p* factor the final exponentiation kills), and Pair replays the program
// against any second argument. A replay performs no point arithmetic and no
// modular inversions — one multiplication per line evaluation plus the
// accumulator update — which is where the ≥2× speedup over Pair comes from.
//
// The loop structure depends only on P and the group order, so the program
// is valid for every Q. Immutable and safe for concurrent use after
// construction. Memory: two field elements per recorded line, ~2·|q| lines.
type FixedPair struct {
	pp    *Params  //cryptolint:public (system parameters)
	kinds []byte   // one per step: stepSquare, stepLine or both
	lines []uint64 // line k: β at [2k·w, (2k+1)·w), α after it, Montgomery form
}

// NewFixedPair precomputes the Miller-loop program for ê(p1, ·). The fixed
// argument must be a non-infinity point of the order-q subgroup — the same
// precondition under which the recorded program's line normalization is
// well-defined (every chord/tangent in the walk is non-degenerate); any
// other point is refused with curve.ErrNotInSubgroup and never walked.
// Construction costs about one Miller loop plus a single batched inversion,
// and O(1) allocations: the recorded (α, β) pairs live in one slab the
// program keeps, the line scales and the inversion's prefix products in a
// second one it drops.
func (pp *Params) NewFixedPair(p1 *curve.Point) (*FixedPair, error) {
	if p1 == nil {
		return nil, fmt.Errorf("pairing: nil fixed pairing argument")
	}
	if err := p1.Validate(); err != nil {
		return nil, fmt.Errorf("pairing: fixed pairing argument: %w", err)
	}
	F := pp.field.Fp()
	mv := newMillerVars(F, p1)
	n := pp.q

	// One doubling per bit below the top one, one addition per set bit
	// among them: an upper bound on the lines (vertical ones emit none).
	maxSteps := n.BitLen() - 1
	for i := n.BitLen() - 2; i >= 0; i-- {
		maxSteps += int(n.Bit(i))
	}
	w := F.Limbs()
	kept := make([]uint64, 2*maxSteps*w)    // line k: β at [2k·w, (2k+1)·w), α after it
	scratch := make([]uint64, 2*maxSteps*w) // the c column, then batchInvert's prefix products
	elt := func(slab []uint64, k int) []uint64 { return slab[k*w : (k+1)*w : (k+1)*w] }

	kinds := make([]byte, 0, maxSteps)
	lines := 0
	// next is where the next line's raw coefficients (a, b, c) go: a and b
	// where they stay as (β, α), normalized after the walk with one batched
	// inversion of the c column.
	next := func() (a, b, c []uint64) { return elt(kept, 2*lines), elt(kept, 2*lines+1), elt(scratch, lines) }
	record := func(kind byte, produced bool) {
		if produced {
			kind |= stepLine
			lines++
		}
		kinds = append(kinds, kind)
	}
	for i := n.BitLen() - 2; i >= 0; i-- {
		record(stepSquare, mv.doubleStep(next()))
		if n.Bit(i) == 1 {
			record(0, mv.addStep(next()))
		}
	}

	cs := scratch[:lines*w]
	if err := batchInvert(F, cs, scratch[maxSteps*w:][:lines*w]); err != nil {
		// Impossible for subgroup points: every recorded line's scale
		// c ∈ {2YZ³, Z·H·(…)} is nonzero off the degenerate cases, which emit
		// no line. Surfaced for corrupted inputs rather than silently caching
		// a wrong program.
		return nil, fmt.Errorf("pairing: degenerate line in fixed-argument precomputation: %w", err)
	}
	for k := 0; k < lines; k++ {
		inv := elt(cs, k)
		F.Mul(elt(kept, 2*k), elt(kept, 2*k), inv)
		F.Mul(elt(kept, 2*k+1), elt(kept, 2*k+1), inv)
	}
	engineCounters.fixedBuilds.Add(1)
	return &FixedPair{pp: pp, kinds: kinds, lines: kept[:2*lines*w]}, nil
}

// Pair computes ê(P, q1) for the fixed P by replaying the precomputed line
// program, bit-identical to Params.Pair(P, q1). ê(P, O) = 1. Where the lane
// engine runs and y_Q ≠ 0 the replay is PairX's, in F_p[j]/(j² + y_Q²), one
// gf.Element.ReplayJ call, and its final exponentiation is mapped onto F_p²
// by j ↦ y_Q·i (gf.Element.FromJ); elsewhere it is millerScalar's.
func (fp *FixedPair) Pair(q1 curve.EvalArg) (*GT, error) {
	m := fp.Miller(q1)
	return fp.pp.finish(&m), nil
}

// Miller is Pair stopped before the final exponentiation (Params.Finish).
func (fp *FixedPair) Miller(q1 curve.EvalArg) Miller {
	pp := fp.pp
	if q1 == nil || q1.IsInfinity() {
		return Miller{}
	}
	xQ, yQ := q1.Mont()
	var m Miller
	if s := pp.jRing(&m.sq, yQ); s != nil {
		if f := pp.field.One(); f.ReplayJ(fp.kinds, fp.lines, xQ, s) {
			m.f, m.inJ, m.y = f, true, yQ
			return m
		}
	}
	m.f = fp.millerScalar(xQ, yQ)
	return m
}

// millerScalar is Pair's replay in F_p² on the scalar kernels, SquareFp2 and
// MulLine a step.
func (fp *FixedPair) millerScalar(xQ, yQ []uint64) *gf.Element {
	f := fp.pp.field.One()
	w, line := len(xQ), fp.lines
	for _, k := range fp.kinds {
		if k&stepSquare != 0 { //cryptolint:public (the program's shape, which q fixes)
			f.Square(f)
		}
		if k&stepLine != 0 { //cryptolint:public (the program's shape, which q fixes)
			f.MulLine(line[w:2*w], line[:w], xQ, yQ)
			line = line[2*w:]
		}
	}
	return f
}

// jSquare holds y_Q² for a pairing run in F_p[j]/(j² + y_Q²).
type jSquare [fp.MaxLimbs]uint64

// jRing decides whether a pairing at an evaluation point of ordinate y runs
// in F_p[j]/(j² + s) with s = y², and returns s (in sq) if it does: where
// the field has the lane engine (fp.Field.Lanes), whose kernels run that
// ring, and y ≠ 0, so that j ↦ y·i maps it onto F_p². Elsewhere it returns
// nil without a product: the scalar kernels run the F_p² loop, which costs
// less than the ring's (a square is two products there, four in the ring).
func (pp *Params) jRing(sq *jSquare, y []uint64) []uint64 {
	F := pp.field.Fp()
	if !F.Lanes() || F.IsZero(y) { //cryptolint:public (the kernel the process runs, and the evaluation point's ordinate)
		return nil
	}
	s := sq[:len(y)]
	F.Square(s, y)
	return s
}

// Lines returns the number of recorded line evaluations (memory
// diagnostics: two field elements are stored per line).
func (fp *FixedPair) Lines() int { return len(fp.lines) / (2 * fp.pp.field.Fp().Limbs()) }

// batchInvert replaces the elements of xs — F.Limbs() words each, laid end
// to end — by their field inverses with Montgomery's simultaneous-inversion
// trick: one constant-time inversion plus 3(n−1) multiplications, all in the
// limb domain. prefix is scratch of the same length. It errors if any
// element is zero (xs is then left as it was).
func batchInvert(F *fp.Field, xs, prefix []uint64) error {
	w := F.Limbs()
	n := len(xs) / w
	if n == 0 {
		return nil
	}
	acc, inv := F.NewElt(), F.NewElt()
	F.SetOne(acc)
	for i := 0; i < n; i++ {
		x := xs[i*w : (i+1)*w]
		if F.IsZero(x) {
			return fmt.Errorf("element %d is zero", i)
		}
		F.Set(prefix[i*w:(i+1)*w], acc)
		F.Mul(acc, acc, x)
	}
	if err := F.Inv(acc, acc); err != nil {
		return fmt.Errorf("product is not invertible mod p")
	}
	for i := n - 1; i >= 0; i-- {
		x := xs[i*w : (i+1)*w]
		F.Mul(inv, acc, prefix[i*w:(i+1)*w])
		F.Mul(acc, acc, x)
		F.Set(x, inv)
	}
	return nil
}
