package wire_test

import (
	"bytes"
	"errors"
	"testing"

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

	f.Add([]byte{})
	f.Add(pp.Generator().Marshal())
	f.Add(make([]byte, 1+c.CoordinateSize())) // canonical infinity
	bad := pp.Generator().Marshal()
	bad[0] ^= 1
	f.Add(bad)
	f.Add(bytes.Repeat([]byte{0xff}, 1+c.CoordinateSize()))
	torsion := make([]byte, 1+c.CoordinateSize())
	torsion[0] = 2 // (0, 0): on the curve, order 2
	f.Add(torsion)
	torsion = append([]byte(nil), torsion...)
	torsion[0] = 3 // non-canonical second spelling of (0, 0)
	f.Add(torsion)

	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := wire.UnmarshalPairingArg(c, data)
		raw, rawErr := c.Unmarshal(data)
		if want := rawErr == nil && !raw.IsInfinity(); (err == nil) != want {
			t.Fatalf("UnmarshalPairingArg(%x): err = %v, but curve.Unmarshal: %v", data, err, rawErr)
		}
		g1, g1Err := wire.UnmarshalG1(c, data)
		if g1Err == nil && (err != nil || !pt.Equal(g1)) {
			t.Fatalf("UnmarshalG1 accepts %x but UnmarshalPairingArg gives %v, %v", data, pt, err)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrProtocol) {
				t.Fatalf("refusal of %x is not an ErrProtocol: %v", data, err)
			}
			return
		}
		if !pt.Equal(raw) || pt.IsInfinity() {
			t.Fatalf("accepted %x as %v", data, pt)
		}
		if enc := pt.Marshal(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding %x (canonical %x)", data, enc)
		}
	})
}
