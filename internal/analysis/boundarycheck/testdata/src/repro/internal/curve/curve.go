// Package curve stubs the module's curve API for fixture type-checking.
package curve

// Curve is the group parameter set.
type Curve struct{}

// Point is a group element.
type Point struct{}

// Unmarshal decodes without subgroup validation.
func (c *Curve) Unmarshal(data []byte) (*Point, error) { return &Point{}, nil }

// EvalX is an x-only evaluation point.
type EvalX struct{}

// UnmarshalX decodes an abscissa without the residuosity check's wrapping.
func (c *Curve) UnmarshalX(data []byte) (EvalX, error) { return EvalX{}, nil }
