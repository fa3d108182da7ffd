// Package curve stubs the module's curve API for fixture type-checking.
package curve

// Curve is the group parameter set.
type Curve struct{}

// Point is a group element.
type Point struct{}

// Unmarshal decodes without subgroup validation.
func (c *Curve) Unmarshal(data []byte) (*Point, error) { return &Point{}, nil }

// IsInfinity reports whether the point is the identity.
func (pt *Point) IsInfinity() bool { return false }

// ScalarMul multiplies the point by k.
func (pt *Point) ScalarMul(k int) *Point { return pt }

// Add adds two points.
func (pt *Point) Add(other *Point) *Point { return pt }

// Marshal encodes the point.
func (pt *Point) Marshal() []byte { return nil }

// Equal compares two points.
func (pt *Point) Equal(other *Point) bool { return pt == other }

// MSM returns Σ ks[i]·pts[i], exact on the whole curve.
func (c *Curve) MSM(ks []int, pts []*Point) (*Point, error) { return &Point{}, nil }
