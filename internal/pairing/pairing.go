// Package pairing implements the modified Tate pairing on the supersingular
// curve E(F_p): y² = x³ + x (p ≡ 3 mod 4, embedding degree 2) that the
// paper's schemes are built on:
//
//	ê : G1 × G1 → GT,   ê(P, Q) = e_q(P, φ(Q))^((p²−1)/q)
//
// where e_q is the order-q Tate pairing computed with Miller's algorithm,
// φ(x, y) = (−x, i·y) is the distortion map into E(F_p²), and GT is the
// order-q subgroup of F_p²*. The map is bilinear, non-degenerate
// (ê(P, P) ≠ 1 for P ≠ O) and efficiently computable — the three properties
// Section 3.1 of the paper requires.
//
// Implementation notes:
//
//   - Denominator elimination: the x-coordinate of φ(Q) lies in F_p, so
//     every vertical-line factor of the Miller loop lands in F_p*, which the
//     final exponentiation (p²−1)/q = (p−1)·(p+1)/q annihilates. The loop
//     skips vertical lines entirely; the affine loop that keeps them is the
//     oracle of pairingtest.
//   - One representation: the Miller walks read a curve.Point's Montgomery
//     limbs in place (Point.Mont) and run on internal/fp; nothing here
//     converts a coordinate.
//   - Final exponentiation: f^(p−1) = conj(f)/f (Frobenius on F_p² is
//     conjugation), then one real-part Lucas ladder by (p+1)/q.
//   - Timing: the package is read by cryptolint's cttime like any other.
//     The variable-time functions carry their own marker — the Miller
//     steps' exceptional-point branches, the final exponentiation's ladder
//     over the public (p+1)/q, and GT.Exp and MultiExp, whose recodings
//     follow their (public) exponents; secret exponents go through
//     GT.ExpSecret and ExpSecretEach, the trace ladder over |q| bits.
package pairing

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/gf"
	"repro/internal/mathx"
)

// ErrDegenerate is returned by operations that require a non-identity GT
// element.
var ErrDegenerate = errors.New("pairing: degenerate (identity) pairing value")

// Params bundles everything the schemes need: the groups G1 (order-q curve
// subgroup), GT (order-q subgroup of F_p²*) and the pairing between them.
// Immutable (the generator's comb and Miller program are built lazily, each
// under a sync.Once) and safe for concurrent use.
type Params struct {
	curve    *curve.Curve        //cryptolint:public (system parameters)
	field    *gf.Field           //cryptolint:public (system parameters)
	gen      *curve.Point        //cryptolint:public (system parameters)
	q        *big.Int            // the group order, shared read-only by every GT value of these parameters
	gt       *gf.UnitarySubgroup // GT and its membership test, decided by newParams
	expTail  *big.Int            //cryptolint:public (derived from public p and q)
	qBits    int
	security string

	genCombOnce sync.Once
	genComb     *curve.SecretComb //cryptolint:public (comb for the public generator)

	genFPOnce sync.Once
	genFP     *FixedPair //cryptolint:public (Miller program for the public generator)
}

// Generate creates fresh pairing parameters with a qBits-bit prime group
// order and a pBits-bit field; pBits − qBits should be at least 16 so a
// cofactor exists. The order is q = 2^(qBits−1) + 2^b + 1 with the smallest b
// that makes it prime (PBC's "type A" form), so a Miller loop over it draws
// one chord besides its tangents and a [q]-ladder takes two additions. The
// field is p = h·q − 1 for a random cofactor h with 4 | h (p ≡ 3 mod 4),
// q ∤ h (q ∥ p + 1) and gcd(h, 2^(qBits−1) − 2^b − 1) = 1, so no element of
// F_p²'s norm-1 group other than 1 has an order dividing that mirror of q.
// Pollard rho does not see the form of q, and the random h keeps p dense, so
// the number field sieve on F_p² gets no special form either.
func Generate(rng io.Reader, qBits, pBits int) (*Params, error) {
	if pBits-qBits < 16 {
		return nil, fmt.Errorf("pairing: pBits−qBits = %d too small for a cofactor", pBits-qBits)
	}
	q, b, err := sparseOrder(qBits)
	if err != nil {
		return nil, err
	}
	one := big.NewInt(1)
	mirror := new(big.Int).Lsh(one, uint(qBits-1))
	mirror.Sub(mirror, new(big.Int).Lsh(one, uint(b)))
	mirror.Sub(mirror, one)
	// h = 4k, with k drawn so that p = 4k·q − 1 has exactly pBits bits.
	fourQ := new(big.Int).Lsh(q, 2)
	lo := new(big.Int).Lsh(one, uint(pBits-1))
	lo.Div(lo, fourQ).Add(lo, one)
	hi := new(big.Int).Lsh(one, uint(pBits))
	hi.Div(hi, fourQ)
	gcd := new(big.Int)
	for attempt := 0; attempt < 100000; attempt++ {
		k, err := mathx.RandomInRange(rng, lo, hi)
		if err != nil {
			return nil, err
		}
		h := new(big.Int).Lsh(k, 2)
		if new(big.Int).Mod(h, q).Sign() == 0 || gcd.GCD(nil, nil, h, mirror).Cmp(one) != 0 {
			continue
		}
		p := new(big.Int).Mul(q, h)
		p.Sub(p, one)
		if p.BitLen() != pBits || !p.ProbablyPrime(20) {
			continue
		}
		return fromPQ(rng, p, q)
	}
	return nil, fmt.Errorf("pairing: no suitable prime found for qBits=%d pBits=%d", qBits, pBits)
}

// sparseOrder returns the prime q = 2^(qBits−1) + 2^b + 1 with the smallest
// b ≥ 1 (b = 6 at 32 and 128 bits, 17 at 160), and b.
func sparseOrder(qBits int) (*big.Int, int, error) {
	one := big.NewInt(1)
	for b := 1; b < qBits-1; b++ {
		q := new(big.Int).Lsh(one, uint(qBits-1))
		q.Add(q, new(big.Int).Lsh(one, uint(b))).Add(q, one)
		if q.ProbablyPrime(20) {
			return q, b, nil
		}
	}
	return nil, 0, fmt.Errorf("pairing: no prime 2^%d + 2^b + 1", qBits-1)
}

// fromPQ finishes parameter construction once p and q are fixed.
func fromPQ(rng io.Reader, p, q *big.Int) (*Params, error) {
	cv, err := curve.New(p, q)
	if err != nil {
		return nil, err
	}
	fld, err := gf.NewField(p)
	if err != nil {
		return nil, err
	}
	gen, err := cv.RandomG1(rng)
	if err != nil {
		return nil, fmt.Errorf("generate G1 generator: %w", err)
	}
	if !gen.InSubgroup() {
		return nil, fmt.Errorf("pairing: generated point escapes subgroup (q² | p+1?)")
	}
	return newParams(cv, fld, gen, "")
}

// newParams assembles Params around a generator already known to lie in G1.
// It takes its own copy of q, which every GT value of the set shares, and
// decides here, from p and q alone, how GT membership is tested: the trace
// comparison where q = 2^a + 2^b + 1 and gcd(p + 1, 2^a − 2^b − 1) = 1 — the
// gcd computed here, not trusted from Generate — and the ladder over q
// otherwise (gf.UnitarySubgroup).
func newParams(cv *curve.Curve, fld *gf.Field, gen *curve.Point, name string) (*Params, error) {
	q := cv.Q()
	gt, err := fld.NewUnitarySubgroup(q)
	if err != nil {
		return nil, fmt.Errorf("pairing: GT: %w", err)
	}
	tail := cv.P()
	tail.Add(tail, big.NewInt(1)).Div(tail, q) //cryptolint:public (the final exponentiation's exponent, from the public p and q)
	return &Params{
		curve:    cv,
		field:    fld,
		gen:      gen,
		q:        q,
		gt:       gt,
		expTail:  tail,
		qBits:    q.BitLen(),
		security: name,
	}, nil
}

// Curve returns the underlying curve (the group G1 lives on it).
func (pp *Params) Curve() *curve.Curve { return pp.curve }

// Field returns the extension field F_p² hosting GT.
func (pp *Params) Field() *gf.Field { return pp.field }

// Generator returns the fixed public generator P of G1.
func (pp *Params) Generator() *curve.Point { return pp.gen }

// GeneratorMul returns k·P for the fixed generator P on the constant-time
// comb of P (curve.SecretComb), built lazily on first use and shared by all
// callers. Almost every scalar it is given is secret — a master, signing or
// user key, an encryption nonce, a dealer's polynomial value — so it walks
// them all the same way; k may be any integer and is reduced mod q at the
// comb's edge. The result is bit-identical to Generator().ScalarMul(k).
func (pp *Params) GeneratorMul(k *big.Int) *curve.Point {
	pp.genCombOnce.Do(func() {
		comb, err := curve.NewSecretComb(pp.gen)
		if err == nil {
			pp.genComb = comb
		}
		// err is impossible for a generator of a usable group; an order too
		// small for the comb (curve.ErrOrderTooSmall) protects nothing, and
		// such Params fall through to the public ladder below.
	})
	if pp.genComb != nil {
		return pp.genComb.ScalarMul(k)
	}
	return pp.gen.ScalarMul(k)
}

// Q returns a copy of the prime group order.
func (pp *Params) Q() *big.Int { return new(big.Int).Set(pp.q) }

// P returns a copy of the field characteristic.
func (pp *Params) P() *big.Int { return pp.curve.P() }

// Name returns a human-readable label for fixed parameter sets ("" for
// generated ones).
func (pp *Params) Name() string { return pp.security }

// Digest is the SHA-256 of p and q, each as ⌈|p|/8⌉ big-endian bytes, and of
// the generator's compressed encoding: one value that names these exact
// parameters where a set's name alone could mean another.
func (pp *Params) Digest() [sha256.Size]byte {
	p, q := pp.P(), pp.Q()
	n := (p.BitLen() + 7) / 8
	h := sha256.New()
	h.Write(p.FillBytes(make([]byte, n))) //cryptolint:public (the public modulus, serialized)
	h.Write(q.FillBytes(make([]byte, n))) //cryptolint:public (the public group order, serialized)
	h.Write(pp.gen.Marshal())
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// GT is an element of the order-q target group, a thin wrapper over F_p²
// that points at its parameters for the group order (shared, never copied)
// and the membership test.
type GT struct {
	v  *gf.Element
	pp *Params
}

// One returns the identity of GT.
func (pp *Params) One() *GT {
	return &GT{v: pp.field.One(), pp: pp}
}

// Element exposes the raw F_p² value (a copy).
func (g *GT) Element() *gf.Element { return g.v.Copy() }

// IsOne reports whether g is the identity.
func (g *GT) IsOne() bool { return g.v.IsOne() }

// Equal reports whether two GT elements are equal.
func (g *GT) Equal(h *GT) bool { return g.v.Equal(h.v) }

// Mul returns g·h.
func (g *GT) Mul(h *GT) *GT {
	out := g.v.Copy()
	out.Mul(out, h.v)
	return &GT{v: out, pp: g.pp}
}

// Inverse returns g⁻¹. GT elements produced by the pairing are never zero.
func (g *GT) Inverse() (*GT, error) {
	inv, err := new(gf.Element).Inverse(g.v)
	if err != nil {
		return nil, fmt.Errorf("invert GT element: %w", err)
	}
	return &GT{v: inv, pp: g.pp}, nil
}

// Exp returns g^k with k reduced modulo the group order (negative k
// allowed). The exponent is non-negative after the reduction, so the
// underlying field exponentiation can only fail on a corrupted receiver;
// that condition is surfaced as an error rather than a panic so no request
// path can crash the process.
//
//cryptolint:vartime (the exponent's recoding steers the walk; secret exponents go through ExpSecret)
func (g *GT) Exp(k *big.Int) (*GT, error) {
	e := new(big.Int).Mod(k, g.pp.q)
	out := new(gf.Element)
	if _, err := out.Exp(g.v, e); err != nil {
		return nil, fmt.Errorf("pairing: GT exponentiation: %w", err)
	}
	return &GT{v: out, pp: g.pp}, nil
}

// ExpSecret returns g^k like Exp, for an exponent that must stay secret (a
// proof nonce, an encryption randomiser): ExpSecretEach for one base, after
// the one inversion SecretBase costs. g = 1 is answered 1 at once — g is the
// public side of the exponentiation — and a g off the norm-1 group, which
// no pairing value and nothing InGT accepts is, is refused (ErrNotUnitary).
func (g *GT) ExpSecret(k *big.Int) (*GT, error) {
	if g.IsOne() {
		return g.pp.One(), nil
	}
	b, err := g.SecretBase()
	if err != nil {
		return nil, err
	}
	return g.pp.ExpSecretEach(k, b)[0], nil
}

// SecretBase is a GT value held for raising to secret exponents
// (ExpSecretEach): the element and the inverse of its imaginary part, which
// the trace ladder divides by to recover a power's, computed once — a key
// share's public constant under every proof nonce, a BF recipient's
// ê(P_pub, Q_ID) under every sender's r. Immutable and safe for concurrent
// use.
type SecretBase struct {
	g     *GT
	invIm [fp.MaxLimbs]uint64
}

// SecretBase prepares g for secret exponents, by one constant-time field
// inversion. A g off the norm-1 group is refused with ErrNotUnitary, as
// MultiExp refuses it: the trace ladder is only right on norm 1.
func (g *GT) SecretBase() (*SecretBase, error) {
	if !g.v.IsUnitary() {
		return nil, ErrNotUnitary
	}
	b := &SecretBase{g: g}
	g.v.ImInverse(b.invIm[:g.pp.field.Fp().Limbs()])
	return b, nil
}

// GT returns the base's element.
func (b *SecretBase) GT() *GT { return b.g }

// ExpSecretEach returns bs[i]^k for every base, each the element Exp
// returns, for one exponent that must stay secret: k is reduced modulo the
// group order only if it lies outside [0, 2^|q|), which no in-repo caller's
// does, and every base is walked by the trace ladder over exactly |q| bits
// (gf.Field.ExpUnitaries) — never k's own length — so the products are the
// same for every exponent of that size, with no inversion and no table.
// Four bases share one ladder call, which on the lane engine costs what one
// base's does. The bases must belong to pp.
func (pp *Params) ExpSecretEach(k *big.Int, bs ...*SecretBase) []*GT {
	q := pp.q
	k = pp.secretExponent(k)
	n := pp.field.Fp().Limbs()
	out := make([]*GT, len(bs))
	var es, xs [fp.MaxLadders]*gf.Element
	var invs [fp.MaxLadders][]uint64
	for i := 0; i < len(bs); i += fp.MaxLadders {
		c := min(len(bs)-i, fp.MaxLadders)
		for m, b := range bs[i : i+c] {
			es[m], xs[m], invs[m] = new(gf.Element), b.g.v, b.invIm[:n]
			out[i+m] = &GT{v: es[m], pp: pp}
		}
		pp.field.ExpUnitaries(es[:c], xs[:c], invs[:c], k, q.BitLen())
	}
	return out
}

// secretExponent returns k in the secret ladder's contract, [0, 2^|q|): k
// itself, which every in-repo caller's is, or else k reduced modulo q.
func (pp *Params) secretExponent(k *big.Int) *big.Int {
	if k.Sign() < 0 || k.BitLen() > pp.q.BitLen() {
		return new(big.Int).Mod(k, pp.q) //cryptolint:public (an exponent outside the ladder's contract is brought into it by math/big, which tells a timer no more than that)
	}
	return k
}

// Bytes returns the canonical fixed-width serialization of g.
func (g *GT) Bytes() []byte { return g.v.Bytes() }

// GTFromBytes parses a GT element serialized by GT.Bytes. The order-q
// subgroup membership of untrusted inputs can be checked with
// Params.InGT.
func (pp *Params) GTFromBytes(data []byte) (*GT, error) {
	el, err := pp.field.ElementFromBytes(data)
	if err != nil {
		return nil, err
	}
	return &GT{v: el, pp: pp}, nil
}

// InGT reports whether g lies in the order-q subgroup of F_p²*. Since
// q | p+1 that subgroup sits inside the norm-1 group, so the check is the
// norm equation a² + b² = 1 plus a test on the trace alone, the one
// newParams chose for q (gf.UnitarySubgroup): on the sparse-order paper set
// and every Generate output, V_(2^a) = V_(2^b+1) for q = 2^a + 2^b + 1 —
// b + 1 ladder steps and a − b squarings, about half the ladder's price
// (DESIGN §7 has the argument) — and on any other q, V_q = 2 by the
// trace ladder over q. Either is the verdict of the generic g^q == 1 on
// every input, zero and non-unitary elements included, and allocates
// nothing.
//
// A batch of k elements is checked element by element (InGT, or InGTEach,
// which gives each element its own verdict and only lets their ladders share
// calls), never by one test on a random linear combination t = ∏ gᵢ^{rᵢ}:
// that check is UNSOUND here. The
// cofactor c = (p²−1)/q is even, so F_p²* has small-order components
// outside the q-subgroup (e.g. −1, order 2), and gᵢ·ε with ord(ε) = m slips
// through whenever rᵢ ≡ 0 (mod m) — probability 1/m per attempt, retryable,
// nowhere near 2⁻⁶⁴. Random combinations reach 2⁻λ soundness only when the
// quotient group has no small-order subgroups, which this one structurally
// cannot satisfy.
func (pp *Params) InGT(g *GT) bool {
	return pp.gt.Contains(g.v)
}

// InGTEach sets ok[i] to InGT(gs[i]) for every i: each element's own
// verdict, by the same test, with up to four elements' trace ladders in one
// call (gf.UnitarySubgroup.ContainsEach) — on the lane engine the price of
// one element's. No verdict reads another element, so this is not the
// combination check InGT's doc rules out.
func (pp *Params) InGTEach(gs []*GT, ok []bool) {
	var es [fp.MaxLadders]*gf.Element
	for i := 0; i < len(gs); i += fp.MaxLadders {
		j := min(i+fp.MaxLadders, len(gs))
		for m, g := range gs[i:j] {
			es[m] = g.v
		}
		pp.gt.ContainsEach(es[:j-i], ok[i:j])
	}
}

// Pair computes the modified Tate pairing ê(P, Q) with denominator
// elimination and an inversion-free Miller loop: the one-pair case of
// MultiPair's lock-step walk. ê(P, O) = ê(O, Q) = 1, and a nil argument is
// O. P is walked; Q is only evaluated at, so it may be any curve.EvalArg.
// Where the lane engine runs and y_Q ≠ 0 the walk is PairX's, in
// F_p[j]/(j² + y_Q²) with its doubling steps on the lanes (walkLanes), and
// its final exponentiation is mapped onto F_p² by j ↦ y_Q·i; elsewhere it is
// the scalar kernels' millerScalar. An error indicates corrupted inputs (the internal
// exponentiations cannot fail for points produced by this package).
func (pp *Params) Pair(p1 *curve.Point, q1 curve.EvalArg) (*GT, error) {
	m := pp.Miller(p1, q1)
	return pp.finish(&m), nil
}

// Miller is a pairing before its final exponentiation: a Miller walk's or a
// program replay's value f, in F_p² or, where the lane engine ran it, in
// F_p[j]/(j² + y_Q²), with the y_Q that maps it back. Params.Finish
// completes several together; Pair, FixedPair.Pair and HashPairer.Pair are
// the one-value case.
type Miller struct {
	f   *gf.Element // nil: the pairing is 1 (an argument was O)
	inJ bool        // f is in F_p[j]/(j² + s), s = y²
	sq  jSquare
	y   []uint64
}

// s is the ring's s = y², nil for F_p².
func (m *Miller) s() []uint64 {
	if !m.inJ {
		return nil
	}
	return m.sq[:len(m.y)]
}

// Miller walks Pair's Miller loop for (p1, q1) and stops before the final
// exponentiation.
func (pp *Params) Miller(p1 *curve.Point, q1 curve.EvalArg) Miller {
	if p1.IsInfinity() || q1 == nil || q1.IsInfinity() {
		return Miller{}
	}
	live := []livePair{newLivePair(pp.field.Fp(), p1, q1)}
	var m Miller
	if s := pp.jRing(&m.sq, live[0].yQ); s != nil {
		m.f, m.inJ, m.y = pp.millerProduct(live, s), true, live[0].yQ
		return m
	}
	m.f = pp.millerScalar(live, nil)
	return m
}

// finish is Finish for one value.
func (pp *Params) finish(m *Miller) *GT {
	if m.f == nil {
		return pp.One()
	}
	v := pp.finalExp(m.f, m.s())
	if m.inJ {
		v.FromJ(v, m.y)
	}
	return &GT{v: v, pp: pp}
}

// Finish completes pairings begun by Miller, FixedPair.Miller or
// HashPairer.Miller: each the GT element the one-call form returns, bit for
// bit, with their final exponentiations finished together
// (gf.Field.ExpUnitaryParts — one inversion, and one ladder call, for every
// four). The ladder reads only traces, so values of different rings share
// it. A zero value pairs to 1, as finalExp has it.
//
//cryptolint:vartime (ladders over the public exponent (p+1)/q, as finalExp's)
func (pp *Params) Finish(ms ...Miller) []*GT {
	out := make([]*GT, len(ms))
	es := make([]*gf.Element, 0, len(ms))
	xs := make([]*gf.Element, 0, len(ms))
	ss := make([][]uint64, 0, len(ms))
	for i := range ms {
		m := &ms[i]
		if m.f == nil || m.f.IsZero() {
			out[i] = pp.One()
			continue
		}
		out[i] = &GT{v: new(gf.Element), pp: pp}
		es, xs, ss = append(es, out[i].v), append(xs, m.f), append(ss, m.s())
	}
	if err := pp.field.ExpUnitaryParts(es, xs, ss, pp.expTail); err != nil {
		// Impossible for the nonzero values left; finish them one by one.
		for i := range ms {
			out[i] = pp.finish(&ms[i])
		}
		return out
	}
	for i := range ms {
		if m := &ms[i]; m.f != nil && m.inJ && !m.f.IsZero() {
			out[i].v.FromJ(out[i].v, m.y)
		}
	}
	return out
}

// PairWithGenerator computes ê(P, q1) for the fixed system generator P via
// a lazily built FixedPair program shared by all callers — the pairing
// analogue of GeneratorMul. Verification equations pair against the
// generator constantly (BLS, threshold share proofs), which is the hot path
// the cached program exists for. Bit-identical to Pair(Generator(), q1).
func (pp *Params) PairWithGenerator(q1 curve.EvalArg) (*GT, error) {
	m := pp.MillerWithGenerator(q1)
	return pp.finish(&m), nil
}

// MillerWithGenerator is PairWithGenerator stopped before the final
// exponentiation (Finish).
func (pp *Params) MillerWithGenerator(q1 curve.EvalArg) Miller {
	pp.genFPOnce.Do(func() {
		fp, err := pp.NewFixedPair(pp.gen)
		if err == nil {
			pp.genFP = fp
		}
		// err is impossible for a valid generator; hand-built Params with a
		// bad generator fall through to the generic walk below.
	})
	if pp.genFP != nil {
		return pp.genFP.Miller(q1)
	}
	return pp.Miller(pp.gen, q1)
}

// finalExp raises the Miller value f to (p²−1)/q = (p−1)·(p+1)/q. The easy
// part f^(p−1) = conj(f)·f⁻¹ lands in the norm-1 (unitary) subgroup, where
// the real parts of the powers form a Lucas sequence of their own, so the
// tail (p+1)/q runs on gf's real-part ladder — one F_p squaring and one
// multiplication per exponent bit, with the imaginary part recovered at the
// end from the same inversion that serves the easy part
// (gf.Element.ExpUnitaryPart). Same field element as the generic
// square-and-multiply. f is in F_p² for a nil s and in the x-only ring
// F_p[j]/(j² + s) otherwise (PairX). A zero Miller value cannot occur for
// valid inputs (line functions vanish only on the points themselves) and
// pairs to 1.
//
//cryptolint:vartime (a ladder over the public exponent (p+1)/q; the field arithmetic underneath, inversion included, is fp's constant-time contract)
func (pp *Params) finalExp(f *gf.Element, s []uint64) *gf.Element {
	v, err := new(gf.Element).ExpUnitaryPart(f, s, pp.expTail)
	if err != nil {
		v = pp.field.One()
	}
	return v
}
