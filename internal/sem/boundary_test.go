package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// TestSubgroupCheckRelaxedOnlyForIBEToken walks the op table at toy and
// paper size with the three inputs the [q]· check exists for — a point of
// cofactor order, the 2-torsion point (0, 0), and U_q + T. ibe_token, where
// the point is only the evaluation point of ê(d_sem, ·), answers them with
// what the pairing's E/qE quotient says (1, 1, Token(U_q)) and refuses only
// the identity and malformed encodings; every other op that takes a point —
// gdh_half_sign, threshold_share, register_ibe — still refuses all three as
// protocol errors, and register_gdh refuses them as scalars.
func TestSubgroupCheckRelaxedOnlyForIBEToken(t *testing.T) {
	for _, name := range []string{"toy", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pp.Curve()
		reg := core.NewRegistry()

		pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
		if err != nil {
			t.Fatal(err)
		}
		ibe := core.NewIBESEM(pkg.Public(), reg)
		_, ibeHalf, err := pkg.SplitExtract(rand.Reader, testID)
		if err != nil {
			t.Fatal(err)
		}
		ibe.Register(ibeHalf)

		gdh := core.NewGDHSEM(pp, reg)
		_, gdhHalf, err := core.NewGDHAuthority(pp).Keygen(rand.Reader, testID)
		if err != nil {
			t.Fatal(err)
		}
		gdh.Register(gdhHalf)

		tpkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		player, err := core.NewThresholdPlayer(tpkg.Params(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := tpkg.ExtractShare(testID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := player.Install(ks); err != nil {
			t.Fatal(err)
		}

		srv, err := NewServer(Config{Registry: reg, IBE: ibe, GDH: gdh, Threshold: player, Pairing: pp, AllowRegister: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		call := func(op byte, payload []byte) ([]byte, error) {
			return opTable[op].handle(srv, testID, payload)
		}

		uq, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var tors *curve.Point
		for tors == nil || tors.IsInfinity() {
			r, err := c.RandomPoint(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			tors = r.ScalarMul(c.Q())
		}
		two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		outside := map[string]*curve.Point{"cofactor-order point": tors, "(0,0)": two, "U_q + T": uq.Add(tors)}

		// Everything but ibe_token keeps the [q]· check.
		for opByte, opName := range map[byte]Op{opGDHSign: OpGDHSign, opThresholdShare: OpThresholdShare, opRegisterIBE: OpRegisterIBE} {
			if _, err := call(opByte, uq.Marshal()); err != nil {
				t.Fatalf("%s: %s refused a G1 point: %v", name, opName, err)
			}
			for what, pt := range outside {
				_, err := call(opByte, pt.Marshal())
				if !errors.Is(err, wire.ErrProtocol) || statusFor(err) != statusBadRequest {
					t.Errorf("%s: %s(%s): err = %v, want a wire.ErrProtocol bad request", name, opName, what, err)
				}
			}
		}
		for what, pt := range outside {
			if _, err := call(opRegisterGDH, pt.Marshal()); err == nil || statusFor(err) != statusBadRequest {
				t.Errorf("%s: register_gdh(%s): err = %v, want a bad request", name, what, err)
			}
		}
		ibe.Register(ibeHalf) // register_ibe above replaced the half with U_q

		// ibe_token: the quotient's answer, validated as the client would.
		token := func(pt *curve.Point) *pairing.GT {
			t.Helper()
			raw, err := call(opIBEToken, pt.Marshal())
			if err != nil {
				t.Fatalf("%s: ibe_token: %v", name, err)
			}
			g, err := wire.UnmarshalGT(pp, raw)
			if err != nil {
				t.Fatalf("%s: ibe_token answered outside GT: %v", name, err)
			}
			return g
		}
		want, err := pp.Pair(uq, ibeHalf.D)
		if err != nil {
			t.Fatal(err)
		}
		if got := token(uq); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: ibe_token(U_q) ≠ ê(U_q, d_sem)", name)
		}
		if got := token(outside["U_q + T"]); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: ibe_token(U_q + T) ≠ ibe_token(U_q)", name)
		}
		for _, what := range []string{"cofactor-order point", "(0,0)"} {
			if got := token(outside[what]); !got.IsOne() {
				t.Errorf("%s: ibe_token(%s) ≠ 1", name, what)
			}
		}
		for what, enc := range map[string][]byte{
			"identity":  c.Infinity().Marshal(),
			"empty":     {},
			"truncated": uq.Marshal()[:c.CoordinateSize()],
			"bad tag":   append([]byte{0x09}, uq.Marshal()[1:]...),
		} {
			if _, err := call(opIBEToken, enc); !errors.Is(err, wire.ErrProtocol) || statusFor(err) != statusBadRequest {
				t.Errorf("%s: ibe_token(%s): err = %v, want a wire.ErrProtocol bad request", name, what, err)
			}
		}
	}
}
