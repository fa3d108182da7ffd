package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestExpSecretMatchesExp: the secret-exponent ladder returns the element Exp
// returns, bytes included, on every fixed parameter set — for a pairing
// value, its square and the identity, alone (ExpSecret) and one to three
// bases to one exponent (ExpSecretEach), for the ends of [0, q), and for the
// exponents outside it that are reduced first, random negative ones and
// multiples of q among them — and a base off the norm-1 group is refused.
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
		bases := []*GT{g, g.Mul(g), pp.One()}
		prepared := make([]*SecretBase, len(bases))
		for i, base := range bases {
			if prepared[i], err = base.SecretBase(); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks {
			for i, base := range bases {
				got, err := base.ExpSecret(k)
				if err != nil {
					t.Fatal(err)
				}
				want := mustExp(t, base, k)
				if string(got.Bytes()) != string(want.Bytes()) {
					t.Fatalf("%s: base %d ^ %v: ExpSecret ≠ Exp", name, i, k)
				}
			}
			for n := 1; n <= len(bases); n++ {
				for i, got := range pp.ExpSecretEach(k, prepared[:n]...) {
					if want := mustExp(t, bases[i], k); string(got.Bytes()) != string(want.Bytes()) {
						t.Fatalf("%s: base %d of %d ^ %v: ExpSecretEach ≠ Exp", name, i, n, k)
					}
				}
			}
		}
		// Not unitary: a value of F_p²* that is no pairing value.
		outside, err := pp.GTFromBytes(append(make([]byte, len(g.Bytes())-1), 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := outside.ExpSecret(big.NewInt(3)); !errors.Is(err, ErrNotUnitary) {
			t.Fatalf("%s: a base off the norm-1 group was exponentiated (%v)", name, err)
		}
	}
}

// TestExpSecretRefusesNonUnitary: no base is prepared for zero, which is not
// even a unit, or for any other element off the norm-1 group; the identity
// is answered 1 for every exponent, and −1 — unitary, though of order 2 and
// so no member of GT — gets Exp's answer, its imaginary part being 0.
func TestExpSecretRefusesNonUnitary(t *testing.T) {
	pp := toyParams(t)
	zero := &GT{v: pp.Field().Zero(), pp: pp}
	if _, err := zero.SecretBase(); err == nil {
		t.Error("a base was prepared for zero")
	}
	if _, err := zero.ExpSecret(big.NewInt(5)); err == nil {
		t.Error("zero was raised to a secret exponent")
	}
	for _, k := range []*big.Int{new(big.Int), big.NewInt(5), big.NewInt(-5), pp.Q()} {
		if got, err := pp.One().ExpSecret(k); err != nil || !got.IsOne() {
			t.Errorf("1^%v = %v, %v", k, got, err)
		}
	}
	minus := &GT{v: pp.Field().One(), pp: pp}
	minus.v.Neg(minus.v)
	for _, k := range []*big.Int{new(big.Int), big.NewInt(5), big.NewInt(6)} {
		got, err := minus.ExpSecret(k)
		if err != nil || !got.Equal(mustExp(t, minus, k)) {
			t.Errorf("(−1)^%v = %v, %v", k, got, err)
		}
	}
}

// TestExpSecretConcurrent shares one prepared base and one set of exponents
// among goroutines (run with -race): ExpSecretEach reads the base and its
// exponent and writes only its own results, so every worker gets Exp's
// bytes and the exponents come back as they went in.
func TestExpSecretConcurrent(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	base, err := g.SecretBase()
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
				if got := pp.ExpSecretEach(ks[j], base)[0]; string(got.Bytes()) != want[j] {
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
