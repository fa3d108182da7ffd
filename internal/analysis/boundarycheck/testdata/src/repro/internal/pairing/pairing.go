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

// ResolveX decodes and resolves an x-only token without a membership check.
func (pp *Params) ResolveX(data []byte, u *curve.Point) (*GT, error) { return &GT{}, nil }
