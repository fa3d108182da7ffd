package curve

import (
	"fmt"
	"math/big"
	"time"
)

// What the tests reach of the package's internals. They live in package
// curve_test so that they can import the curvetest oracle (which imports this
// package), and see the unexported kernels through these names only.
const (
	MSMLadderMax  = msmLadderMax
	PrecompWindow = precompWindow
)

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
