package wire_test

import (
	"bytes"
	"errors"
	"math/big"
	"slices"
	"testing"

	"repro/internal/curve/curvetest"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// FuzzUnmarshalG1 throws arbitrary byte strings at the validated G1 decoder.
// It must never panic, and every accepted point must round-trip through the
// canonical compressed encoding — so an attacker cannot smuggle in a second
// encoding of the same point past equality checks keyed on the wire bytes.
// The same property is checked on curve.Unmarshal alone, which also decodes
// points outside G1 that the subgroup check of wire.UnmarshalG1 would hide
// (03‖0…0, a second spelling of the 2-torsion point, was accepted there).
func FuzzUnmarshalG1(f *testing.F) {
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	c := pp.Curve()

	f.Add([]byte{})
	f.Add(pp.Generator().Marshal())
	f.Add(make([]byte, 1+c.CoordinateSize())) // canonical infinity
	bad := pp.Generator().Marshal()
	bad[0] ^= 1 // flip the parity tag
	f.Add(bad)
	f.Add(bytes.Repeat([]byte{0xff}, 1+c.CoordinateSize()))
	torsion := make([]byte, 1+c.CoordinateSize())
	torsion[0] = 3 // x = 0 has the single root y = 0: tag 3 is non-canonical
	f.Add(torsion)

	f.Fuzz(func(t *testing.T, data []byte) {
		if raw, err := c.Unmarshal(data); err == nil {
			if enc := raw.Marshal(); !bytes.Equal(enc, data) {
				t.Fatalf("curve.Unmarshal accepted non-canonical encoding %x (canonical %x)", data, enc)
			}
		}
		pt, err := wire.UnmarshalG1(c, data)
		if err != nil {
			return
		}
		enc := pt.Marshal()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding %x (canonical %x)", data, enc)
		}
		again, err := wire.UnmarshalG1(c, enc)
		if err != nil {
			t.Fatalf("re-decode of accepted point failed: %v", err)
		}
		if !again.Equal(pt) {
			t.Fatalf("round-trip changed the point")
		}
	})
}

// FuzzUnmarshalPairingArg throws arbitrary byte strings at the decoder for
// pairing evaluation points. It must never panic; it accepts exactly the
// canonical encodings of non-identity curve points (curve.Unmarshal's
// verdict minus O) — so it agrees with UnmarshalG1 on every input
// UnmarshalG1 accepts, and differs from it only by admitting points with a
// cofactor component.
func FuzzUnmarshalPairingArg(f *testing.F) {
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	c := pp.Curve()
	for _, seed := range pairingArgSeeds(pp) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := wire.UnmarshalPairingArg(c, data)
		raw, rawErr := c.Unmarshal(data)
		if want := rawErr == nil && !raw.IsInfinity(); (err == nil) != want {
			t.Fatalf("UnmarshalPairingArg(%x): err = %v, but curve.Unmarshal: %v", data, err, rawErr)
		}
		g1, g1Err := wire.UnmarshalG1(c, data)
		if g1Err == nil && (err != nil || !curvetest.Open(t, c, pt).Equal(g1)) {
			t.Fatalf("UnmarshalG1 accepts %x but UnmarshalPairingArg gives %x, %v", data, pt.Marshal(), err)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrProtocol) {
				t.Fatalf("refusal of %x is not an ErrProtocol: %v", data, err)
			}
			return
		}
		if pt.IsInfinity() || !curvetest.Open(t, c, pt).Equal(raw) {
			t.Fatalf("accepted %x as %x", data, pt.Marshal())
		}
		if enc := pt.Marshal(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding %x (canonical %x)", data, enc)
		}
	})
}

// pairingArgSeeds are the evaluation-point decoders' seeds: empty, the
// generator and its other sign, O, all ones, and both spellings of the
// 2-torsion point (0, 0) — tag 2 on the curve, tag 3 non-canonical.
func pairingArgSeeds(pp *pairing.Params) [][]byte {
	c := pp.Curve()
	size := 1 + c.CoordinateSize()
	bad := pp.Generator().Marshal()
	bad[0] ^= 1
	torsion2, torsion3 := make([]byte, size), make([]byte, size)
	torsion2[0], torsion3[0] = 2, 3
	return [][]byte{{}, pp.Generator().Marshal(), make([]byte, size), bad, bytes.Repeat([]byte{0xff}, size), torsion2, torsion3}
}

// FuzzUnmarshalPairingX throws arbitrary byte strings at the x-only
// decoder. It must never panic; it accepts exactly what
// UnmarshalPairingArg accepts less x = 0, refuses with ErrProtocol, and an
// accepted x is the decoded point's. Seeds: UnmarshalPairingArg's, an x
// whose x³ + x is not a square, and x = p − 1.
func FuzzUnmarshalPairingX(f *testing.F) {
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	c := pp.Curve()
	for _, seed := range pairingArgSeeds(pp) {
		f.Add(seed)
	}
	p := c.P()
	x := big.NewInt(2)
	for {
		s := new(big.Int).Exp(x, big.NewInt(3), p)
		if big.Jacobi(s.Add(s, x).Mod(s, p), p) == -1 {
			break
		}
		x.Add(x, big.NewInt(1))
	}
	for _, v := range []*big.Int{x, new(big.Int).Sub(p, big.NewInt(1))} {
		for _, tag := range []byte{2, 3} {
			enc := make([]byte, 1+c.CoordinateSize())
			enc[0] = tag
			v.FillBytes(enc[1:])
			f.Add(enc)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := wire.UnmarshalPairingX(c, data)
		pt, argErr := wire.UnmarshalPairingArg(c, data)
		var xArg []uint64
		if argErr == nil {
			xArg, _ = curvetest.Open(t, c, pt).Mont()
		}
		if want := argErr == nil && slices.ContainsFunc(xArg, func(l uint64) bool { return l != 0 }); (err == nil) != want {
			t.Fatalf("UnmarshalPairingX(%x): err = %v, but UnmarshalPairingArg: %v", data, err, argErr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrProtocol) || !ex.IsInfinity() {
				t.Fatalf("refusal of %x is not an ErrProtocol with no value: %v", data, err)
			}
			return
		}
		if got, _ := ex.XS(); !slices.Equal(got, xArg) {
			t.Fatalf("accepted %x with x %v, the point's is %v", data, got, xArg)
		}
	})
}
