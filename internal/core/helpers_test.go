package core

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/pairing"
)

// mustShare computes a plain decryption share, failing the test on the
// (never-expected) internal pairing error path.
func mustShare(t testing.TB, p *ThresholdParams, ks *KeyShare, u *curve.Point) *DecryptionShare {
	t.Helper()
	s, err := p.ComputeShare(ks, u)
	if err != nil {
		t.Fatalf("ComputeShare: %v", err)
	}
	return s
}

// resolveToken is what the requester does with an x-only token: resolve its
// bytes with U's y (pairing.Params.ResolveX).
func resolveToken(t testing.TB, pp *pairing.Params, g pairing.GTX, u *curve.Point) *pairing.GT {
	t.Helper()
	r, err := pp.ResolveX(g.Bytes(), u)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
