package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestExpSecretMatchesExp: the secret-exponent ladder and the fixed-base comb
// return the element Exp returns, bytes included, on every fixed parameter set — for a pairing value
// and for the identity, for the ends of [0, q), and for the exponents outside
// it that both reduce first.
func TestExpSecretMatchesExp(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		q := pp.Q()
		g := mustPair(t, pp, pp.Generator(), pp.Generator())
		ks := []*big.Int{
			new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(q, big.NewInt(1)), new(big.Int).Set(q),
			new(big.Int).Add(q, big.NewInt(1)), big.NewInt(-9), new(big.Int).Lsh(q, 9),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(q.BitLen())), big.NewInt(1)), // in the word range, above q
		}
		for i := 0; i < 20; i++ {
			k, err := rand.Int(rand.Reader, q)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		for _, base := range []*GT{g, pp.One()} {
			comb, err := NewGTSecretComb(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				got, err := base.ExpSecret(k)
				if err != nil {
					t.Fatal(err)
				}
				want := mustExp(t, base, k)
				if string(got.Bytes()) != string(want.Bytes()) {
					t.Fatalf("%s: g^%v: ExpSecret ≠ Exp", name, k)
				}
				if got := comb.ExpSecret(k); string(got.Bytes()) != string(want.Bytes()) {
					t.Fatalf("%s: g^%v: comb ≠ Exp", name, k)
				}
			}
		}
		// Not in GT: a value of F_p²* that is no pairing value.
		outside, err := pp.GTFromBytes(append(make([]byte, len(g.Bytes())-1), 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewGTSecretComb(outside); err == nil {
			t.Fatalf("%s: a comb was built for a base outside GT", name)
		}
	}
}
