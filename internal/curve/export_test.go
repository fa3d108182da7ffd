package curve

import (
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fp"
)

// What the tests reach of the package's internals. They live in package
// curve_test so that they can import the curvetest oracle (which imports this
// package), and see the unexported kernels through these names only.
const MSMLadderMax = msmLadderMax

var (
	ErrMSMShape = errMSMShape
	MSMTerms    = msmTerms
)

// MSMLadder and MSMBuckets run one MSM kernel directly, whatever the size.
func (c *Curve) MSMLadder(ks []*big.Int, pts []*Point) (*Point, error) {
	return c.msmLadder(ks, pts, time.Now())
}

func (c *Curve) MSMBuckets(ks []*big.Int, pts []*Point) (*Point, error) {
	return c.msmBuckets(ks, pts, time.Now())
}

// BatchTriple returns 3·P for every P of pts, computed as one doubling and
// one mixed addition — which leave a non-trivial Z — and normalised together
// by ljBatchNormalize; identities stay at Z = 0 in between the others.
func (c *Curve) BatchTriple(pts []*Point) ([]*Point, error) {
	F := c.fld
	s := newLjScratch(F)
	jacs := newLimbJacs(F, len(pts))
	for i, P := range pts {
		if P.IsInfinity() {
			continue
		}
		jacs[i].setAffine(F, P.x, P.y)
		ljDouble(F, &jacs[i], s)
		ljAddMixed(F, &jacs[i], P.x, P.y, s)
	}
	if err := ljBatchNormalize(F, jacs, newElts(F, len(jacs)), s); err != nil {
		return nil, err
	}
	out := make([]*Point, len(pts))
	for i := range jacs {
		if !F.IsZero(jacs[i].z) && !F.IsOne(jacs[i].z) {
			return nil, fmt.Errorf("point %d left with Z ∉ {0, 1}", i)
		}
		out[i] = c.ljToPoint(&jacs[i], s)
	}
	return out, nil
}

// SecretOps is what a secret-scalar kernel did, counted in group operations,
// table rows and inversions; each group operation is one straight line of fp
// calls.
type SecretOps = secretOps

// ScalarMulSecretOps is ScalarMulSecret with its operations counted.
func (pt *Point) ScalarMulSecretOps(k *big.Int) (*Point, SecretOps, error) {
	return pt.scalarMulSecret(k)
}

// ScalarMulOps is ScalarMul with its operations counted.
func (sc *SecretComb) ScalarMulOps(k *big.Int) (*Point, SecretOps) { return sc.scalarMul(k) }

// Shape returns the comb's teeth, spacing and row count.
func (sc *SecretComb) Shape() (teeth, spacing, rows int) {
	return sc.teeth, sc.spacing, 1 << (sc.teeth - 1)
}

// SecretLastStepOnItself runs the kernels' last step — the addition that is
// also right for equal operands — with the accumulator holding R and R the
// row picked, and returns what it leaves: 2R.
func SecretLastStepOnItself(R *Point) *Point {
	walk := R.curve.newSecretWalk()
	walk.pick(affineRows(R.curve.fld, []limbJac{{x: R.x, y: R.y}}), []uint64{1}, 0, 1, 1)
	walk.load()
	walk.add(0, true)
	return walk.finish(0, 0)
}

// WatchDoublings checks, until tb ends, every point ljDouble is handed: it
// must satisfy Y² = X³ + X·Z⁴ or have Z = 0, which is what the b = 0
// doubling formulas rely on. A point that does neither fails tb. It returns
// a counter of the points checked so far. The tests of this package do not
// run in parallel, so installing the check is safe; the kernels' own worker
// goroutines only read it.
func WatchDoublings(tb testing.TB) func() uint64 {
	var n atomic.Uint64
	checkDouble = func(F *fp.Field, x, y, z []uint64) {
		n.Add(1)
		if !onCurveOrIdentity(F, x, y, z) {
			tb.Errorf("ljDouble handed (%x, %x, %x): neither on y² = x³ + x nor Z = 0", x, y, z)
		}
	}
	tb.Cleanup(func() { checkDouble = nil })
	return n.Load
}

// onCurveOrIdentity reports whether the Jacobian (x, y, z) has z = 0 or
// satisfies y² = x³ + x·z⁴.
func onCurveOrIdentity(F *fp.Field, x, y, z []uint64) bool {
	if F.IsZero(z) {
		return true
	}
	lhs, rhs, z4 := F.NewElt(), F.NewElt(), F.NewElt()
	F.Square(lhs, y)
	F.Square(z4, z)
	F.Square(z4, z4)
	F.Square(rhs, x)
	F.Add(rhs, rhs, z4)
	F.Mul(rhs, rhs, x)
	return F.Equal(lhs, rhs)
}

// Fp is the curve's base field.
func (c *Curve) Fp() *fp.Field { return c.fld }

// LjDouble runs ljDouble on the Jacobian limbs (x, y, z) in place.
func LjDouble(F *fp.Field, x, y, z []uint64) {
	ljDouble(F, &limbJac{x: x, y: y, z: z}, newLjScratch(F))
}

// IdentityJac returns the limbs of the identity as newLimbJacs makes it.
func IdentityJac(F *fp.Field) (x, y, z []uint64) {
	v := newLimbJac(F)
	return v.x, v.y, v.z
}
