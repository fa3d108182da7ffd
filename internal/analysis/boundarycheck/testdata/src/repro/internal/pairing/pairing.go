// Package pairing stubs the module's pairing API.
package pairing

import "repro/internal/curve"

// Params is a pairing parameter set.
type Params struct{}

// GT is a target-group element.
type GT struct{}

// GTFromBytes decodes without an order-q membership check.
func (pp *Params) GTFromBytes(data []byte) (*GT, error) { return &GT{}, nil }

// Curve returns the underlying curve.
func (pp *Params) Curve() *curve.Curve { return &curve.Curve{} }

// Pair computes ê(p1, q1): p1 is walked, q1 is the evaluation point.
func (pp *Params) Pair(p1, q1 *curve.Point) (*GT, error) { return &GT{}, nil }

// FixedPair is a precomputed Miller program for a fixed first argument.
type FixedPair struct{}

// Pair evaluates the program at q1.
func (fp *FixedPair) Pair(q1 *curve.Point) (*GT, error) { return &GT{}, nil }
