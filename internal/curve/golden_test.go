package curve_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/big"
	"os"
	"testing"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/pairing"
)

// update rewrites testdata/golden.json from the code under test. The
// committed file was written by running this test with -update inside a
// checkout of the commit that still had the big.Int Jacobian layer (PR 12,
// 19e7411); leave it alone unless the map is meant to change.
var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenVectors evaluates every pinned operation on the toy, fast, paper and
// paper_dense parameter sets and returns name → hex(Marshal(result)). Everything is
// derived from fixed strings and the parameter constants, so two
// implementations agree on the map exactly when they agree bit for bit on
// hash-to-G1, variable-base and fixed-base multiplication and encoding.
func goldenVectors(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, q := pp.Curve(), pp.Q()
		put := func(key string, pt *curve.Point) {
			out[name+"/"+key] = hex.EncodeToString(pt.Marshal())
		}

		for _, domain := range []string{"BF-H1", "GDH-SIG-H"} {
			for _, msg := range []string{"", "alice@example.com", "a much longer message, hashed to the curve \x00\xff"} {
				pt, err := c.HashToPoint(domain, []byte(msg))
				if err != nil {
					t.Fatal(err)
				}
				put("hash/"+domain+"/"+hex.EncodeToString([]byte(msg)), pt)
			}
		}
		for _, id := range []string{"alice@example.com", "bob@example.com", "user-0042"} {
			pt, err := bf.HashIdentity(pp, id)
			if err != nil {
				t.Fatal(err)
			}
			put("hashidentity/"+id, pt)
		}

		// Bases: the generator, a hashed G1 point, a full-group point (its
		// cofactor component intact), the 2-torsion point and a point of
		// cofactor order.
		hashed, err := c.HashToPoint("golden", []byte("base"))
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.HashToPointUncleared("golden", []byte("full"))
		if err != nil {
			t.Fatal(err)
		}
		two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		small := curvetest.ScalarMulBinary(full, q)
		if small.IsInfinity() {
			t.Fatalf("%s: golden full-group point has no cofactor component", name)
		}
		bases := []struct {
			name string
			pt   *curve.Point
		}{{"G", pp.Generator()}, {"hashed", hashed}, {"full", full}, {"two-torsion", two}, {"cofactor-order", small}}

		wide := new(big.Int).Lsh(big.NewInt(1), uint(c.P().BitLen()+7))
		wide.Add(wide, big.NewInt(12345))
		digest := new(big.Int).SetBytes([]byte("golden scalar: sixteen bytes and then some more"))
		scalars := []struct {
			name string
			k    *big.Int
		}{
			{"0", big.NewInt(0)},
			{"1", big.NewInt(1)},
			{"2", big.NewInt(2)},
			{"q-1", new(big.Int).Sub(q, big.NewInt(1))},
			{"q", q},
			{"q+1", new(big.Int).Add(q, big.NewInt(1))},
			{"-5", big.NewInt(-5)},
			{"-(q+3)", new(big.Int).Neg(new(big.Int).Add(q, big.NewInt(3)))},
			{"wide", wide},
			{"cofactor", c.Cofactor()},
			{"digest-mod-q", new(big.Int).Mod(digest, q)},
			{"digest", digest},
		}
		for _, b := range bases {
			put("marshal/"+b.name, b.pt)
			for _, s := range scalars {
				put("scalarmul/"+b.name+"/"+s.name, b.pt.ScalarMul(s.k))
			}
		}
		for _, s := range scalars {
			put("generatormul/"+s.name, pp.GeneratorMul(s.k))
		}
	}
	return out
}

// TestGoldenVectors pins hash-to-G1, scalar multiplication, fixed-base
// multiplication and point encoding to the bytes the parent implementation
// produced: enrolled identity keys are persistent, so none of these maps may
// move by one bit.
func TestGoldenVectors(t *testing.T) {
	got := goldenVectors(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d vectors computed, %d in %s", len(got), len(want), goldenPath)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in the golden file but no longer computed", key)
		} else if g != w {
			t.Errorf("%s:\n got %s\nwant %s", key, g, w)
		}
	}
}

// TestUnmarshalCanonical checks that Unmarshal accepts only what Marshal
// writes: every accepted encoding re-marshals to the same bytes. The case
// that used to break it is x = 0, whose only root is y = 0: the 2-torsion
// point (0, 0) is written with tag 2, and tag 3 — a parity the root cannot
// have — must be refused, not folded onto the same point.
func TestUnmarshalCanonical(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := pairing.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pp.Curve()
		enc := make([]byte, 1+c.CoordinateSize())
		for x := 0; x < 64; x++ {
			enc[len(enc)-1] = byte(x)
			for _, tag := range []byte{2, 3} {
				enc[0] = tag
				pt, err := c.Unmarshal(enc)
				if err != nil {
					continue
				}
				if got := pt.Marshal(); !bytes.Equal(got, enc) {
					t.Errorf("%s: Unmarshal accepted %x, which re-marshals to %x", name, enc, got)
				}
			}
		}
		enc[len(enc)-1] = 0
		enc[0] = 2
		pt, err := c.Unmarshal(enc)
		if err != nil {
			t.Fatalf("%s: canonical encoding of (0, 0) refused: %v", name, err)
		}
		if pt.X().Sign() != 0 || pt.Y().Sign() != 0 {
			t.Errorf("%s: 02‖0…0 decoded to %v", name, pt)
		}
		enc[0] = 3
		if _, err := c.Unmarshal(enc); err == nil {
			t.Errorf("%s: 03‖0…0 accepted", name)
		}
	}
}
