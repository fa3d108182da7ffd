// Package curve stubs the module's curve API for fixture type-checking.
package curve

// Curve is the group parameter set.
type Curve struct{}

// Point is a group element.
type Point struct{}

// Unmarshal decodes without subgroup validation.
func (c *Curve) Unmarshal(data []byte) (*Point, error) { return &Point{}, nil }
