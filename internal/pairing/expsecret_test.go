package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestExpSecretMatchesExp: the secret-exponent ladder and the fixed-base comb
// return the element Exp returns, bytes included, on every fixed parameter set — for a pairing value
// and for the identity, for the ends of [0, q), and for the exponents outside
// it that both reduce first, random negative ones and multiples of q among them.
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
			switch i % 4 {
			case 1:
				k.Neg(k)
			case 2:
				k.Mul(k, q) // ≡ 0 after a multi-limb reduction
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

// TestGTSecretCombRefusesNonMembers: no comb is built for a nil base or for
// zero, which is not even a unit; the identity is in GT and gets one, whose
// every power is the identity.
func TestGTSecretCombRefusesNonMembers(t *testing.T) {
	pp := toyParams(t)
	if _, err := NewGTSecretComb(nil); err == nil {
		t.Error("a comb was built for a nil base")
	}
	zero := &GT{v: pp.Field().Zero(), pp: pp}
	if _, err := NewGTSecretComb(zero); err == nil {
		t.Error("a comb was built for zero")
	}
	comb, err := NewGTSecretComb(pp.One())
	if err != nil {
		t.Fatalf("the identity is in GT: %v", err)
	}
	for _, k := range []*big.Int{new(big.Int), big.NewInt(5), big.NewInt(-5), pp.Q()} {
		if !comb.ExpSecret(k).IsOne() {
			t.Errorf("1^%v ≠ 1", k)
		}
	}
}

// TestGTSecretCombConcurrent shares one comb and one set of exponents among
// goroutines (run with -race): ExpSecret reads its rows and its exponent and
// writes only its own accumulator, so every worker gets Exp's bytes and the
// exponents come back as they went in.
func TestGTSecretCombConcurrent(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	comb, err := NewGTSecretComb(g)
	if err != nil {
		t.Fatal(err)
	}
	q := pp.Q()
	ks := []*big.Int{big.NewInt(123456), big.NewInt(-789), new(big.Int).Set(q), new(big.Int).Lsh(q, 3)}
	var want, before []string
	for _, k := range ks {
		want = append(want, string(mustExp(t, g, k).Bytes()))
		before = append(before, k.String())
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (w + i) % len(ks)
				if got := comb.ExpSecret(ks[j]); string(got.Bytes()) != want[j] {
					errs[w] = fmt.Errorf("worker %d run %d: g^%v ≠ Exp", w, i, ks[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for j, k := range ks {
		if k.String() != before[j] {
			t.Errorf("exponent %s came back as %v", before[j], k)
		}
	}
}
