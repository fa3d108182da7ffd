package pairing

import (
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// expProduct is the oracle MultiExp is held to: Π gs[i]^ks[i] as separate
// GT.Exp calls multiplied together.
func expProduct(t testing.TB, pp *Params, gs []*GT, ks []*big.Int) *GT {
	t.Helper()
	out := pp.One()
	for i, g := range gs {
		out = out.Mul(mustExp(t, g, ks[i]))
	}
	return out
}

// TestMultiExpMatchesExpProduct drives the kernel through the exponent and
// base shapes its callers produce — zero, one, q−1, negative and unreduced
// exponents, half-width ones next to full-width ones, repeated and identity
// bases, the empty product — on every fixed parameter set, and demands the
// exact element of the Exp-by-Exp product.
func TestMultiExpMatchesExpProduct(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		pp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		q := pp.Q()
		g := mustPair(t, pp, pp.Generator(), pp.Generator())
		h := mustExp(t, g, big.NewInt(0xC0FFEE))
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		wide := new(big.Int).Lsh(q, 9)
		wide.Add(wide, big.NewInt(77))
		half := new(big.Int).Rsh(qm1, uint(q.BitLen()/2))

		cases := []struct {
			name string
			gs   []*GT
			ks   []*big.Int
		}{
			{"empty", nil, nil},
			{"zero", []*GT{g}, []*big.Int{big.NewInt(0)}},
			{"one", []*GT{g}, []*big.Int{big.NewInt(1)}},
			{"q", []*GT{g}, []*big.Int{new(big.Int).Set(q)}},
			{"qm1", []*GT{g}, []*big.Int{qm1}},
			{"negative", []*GT{g, h}, []*big.Int{big.NewInt(-9), new(big.Int).Neg(qm1)}},
			{"unreduced", []*GT{g, h}, []*big.Int{wide, new(big.Int).Neg(wide)}},
			{"repeated.base", []*GT{g, g, g}, []*big.Int{big.NewInt(2), half, qm1}},
			{"cancel", []*GT{g, g}, []*big.Int{big.NewInt(6), big.NewInt(-6)}},
			{"identity.base", []*GT{pp.One(), h}, []*big.Int{qm1, big.NewInt(5)}},
			{"mixed", []*GT{g, h, g.Mul(h), pp.One(), h}, []*big.Int{big.NewInt(0), qm1, half, wide, big.NewInt(1)}},
		}
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				got, err := pp.MultiExp(tc.gs, tc.ks)
				if err != nil {
					t.Fatal(err)
				}
				if want := expProduct(t, pp, tc.gs, tc.ks); !got.Equal(want) {
					t.Fatalf("MultiExp = %x, Π Exp = %x", got.Bytes(), want.Bytes())
				}
			})
		}

		// Random products at the sizes the callers have: t Lagrange terms,
		// 4 and 4n terms of the share-proof check.
		rng := mrand.New(mrand.NewSource(20030713))
		for _, n := range []int{1, 2, 3, 4, 20} {
			gs, ks := make([]*GT, n), make([]*big.Int, n)
			for i := range gs {
				gs[i] = mustExp(t, g, new(big.Int).Rand(rng, q))
				ks[i] = new(big.Int).Rand(rng, q)
				if i%4 == 0 {
					ks[i].Rsh(ks[i], uint(q.BitLen()/5))
				}
			}
			got, err := pp.MultiExp(gs, ks)
			if err != nil {
				t.Fatal(err)
			}
			if want := expProduct(t, pp, gs, ks); !got.Equal(want) {
				t.Fatalf("%s n=%d: MultiExp diverges from Π Exp", name, n)
			}
		}
	}
}

// TestMultiExpRejectsBadInput: mismatched lengths, nil members and — the
// one that matters — a base off the norm-1 subgroup, where the kernel's
// squaring and conjugate-for-inverse would compute garbage silently.
func TestMultiExpRejectsBadInput(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	one := big.NewInt(1)
	if _, err := pp.MultiExp([]*GT{g}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := pp.MultiExp([]*GT{nil}, []*big.Int{one}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := pp.MultiExp([]*GT{g}, []*big.Int{nil}); err == nil {
		t.Error("nil exponent accepted")
	}
	outsider := &GT{v: pp.Field().NewElement(big.NewInt(2), big.NewInt(3)), pp: pp}
	if _, err := pp.MultiExp([]*GT{g, outsider}, []*big.Int{one, one}); !errors.Is(err, ErrNotUnitary) {
		t.Errorf("non-unitary base: err = %v, want ErrNotUnitary", err)
	}
	// Even with a zero exponent: the verdict must not depend on the scalar.
	if _, err := pp.MultiExp([]*GT{outsider}, []*big.Int{big.NewInt(0)}); !errors.Is(err, ErrNotUnitary) {
		t.Errorf("non-unitary base with a zero exponent: err = %v, want ErrNotUnitary", err)
	}
}

// TestMultiExpConcurrent shares one set of bases among goroutines (run with
// -race -cpu 1,4): the kernel reads its bases and writes only its own
// tables.
func TestMultiExpConcurrent(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	gs := []*GT{g, mustExp(t, g, big.NewInt(3)), mustExp(t, g, big.NewInt(5))}
	ks := []*big.Int{big.NewInt(123456), big.NewInt(-789), pp.Q()}
	want := expProduct(t, pp, gs, ks)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := pp.MultiExp(gs, ks)
				if err == nil && !got.Equal(want) {
					err = fmt.Errorf("worker %d run %d: wrong product", w, i)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMultiExp compares the kernel with the Exp-by-Exp product at the
// share-proof check's shape: 4 terms (one share) and 20 (n = 5).
func BenchmarkMultiExp(b *testing.B) {
	pp, err := Paper()
	if err != nil {
		b.Fatal(err)
	}
	q := pp.Q()
	g := mustPair(b, pp, pp.Generator(), pp.Generator())
	rng := mrand.New(mrand.NewSource(1))
	for _, n := range []int{4, 20} {
		gs, ks := make([]*GT, n), make([]*big.Int, n)
		for i := range gs {
			gs[i] = mustExp(b, g, new(big.Int).Rand(rng, q))
			ks[i] = new(big.Int).Rand(rng, q)
		}
		b.Run(fmt.Sprintf("multi.%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pp.MultiExp(gs, ks); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("separate.%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expProduct(b, pp, gs, ks)
			}
		})
	}
}
