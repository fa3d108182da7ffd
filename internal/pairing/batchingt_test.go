package pairing

import (
	"math/big"
	"testing"
)

func TestBatchInGT(t *testing.T) {
	pp := toyParams(t)
	g := mustPair(t, pp, pp.Generator(), pp.Generator())
	members := []*GT{
		g,
		mustExp(t, g, big.NewInt(7)),
		mustExp(t, g, big.NewInt(123456789)),
		pp.One(),
	}
	outsider := &GT{v: pp.Field().NewElement(big.NewInt(2), big.NewInt(3)), pp: pp}
	zero := &GT{v: pp.Field().Zero(), pp: pp}

	t.Run("all members", func(t *testing.T) {
		ok, err := pp.BatchInGT(members)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range ok {
			if !b {
				t.Fatalf("member %d rejected", i)
			}
		}
	})

	t.Run("mixed batch pinpoints culprits", func(t *testing.T) {
		batch := []*GT{members[0], outsider, members[1], zero, nil, members[2]}
		ok, err := pp.BatchInGT(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := []bool{true, false, true, false, false, true}
		for i := range want {
			if ok[i] != want[i] {
				t.Fatalf("verdicts = %v, want %v", ok, want)
			}
		}
	})

	t.Run("empty and all-bad", func(t *testing.T) {
		ok, err := pp.BatchInGT(nil)
		if err != nil || len(ok) != 0 {
			t.Fatalf("empty batch: %v %v", ok, err)
		}
		ok, err = pp.BatchInGT([]*GT{outsider, zero})
		if err != nil {
			t.Fatal(err)
		}
		if ok[0] || ok[1] {
			t.Fatalf("all-bad batch accepted: %v", ok)
		}
	})

	// A member multiplied by −1 (an order-2 element of F_p²*, outside the
	// odd-order q-subgroup) must be rejected every single time. This pins
	// the soundness bug in the retired random-linear-combination variant,
	// which accepted such an element whenever its 64-bit coefficient was
	// even — probability 1/2 per call, and freely retryable by the peer.
	t.Run("order-2 tampering always rejected", func(t *testing.T) {
		tampered := &GT{v: pp.Field().Zero().Neg(g.v), pp: pp}
		if pp.InGT(tampered) {
			t.Fatal("−g reported inside the odd-order subgroup")
		}
		for trial := 0; trial < 64; trial++ {
			ok, err := pp.BatchInGT([]*GT{g, tampered, members[1]})
			if err != nil {
				t.Fatal(err)
			}
			if !ok[0] || ok[1] || !ok[2] {
				t.Fatalf("trial %d: verdicts = %v, want [true false true]", trial, ok)
			}
		}
	})

	// The batched verdict must agree with per-element InGT across many
	// batches (the batch check IS per-element InGT fanned across cores,
	// so disagreement would mean a results-placement bug in the fan).
	t.Run("agrees with InGT", func(t *testing.T) {
		for trial := 0; trial < 8; trial++ {
			batch := []*GT{
				mustExp(t, g, big.NewInt(int64(trial+2))),
				outsider,
				mustExp(t, g, big.NewInt(int64(3*trial+5))),
			}
			ok, err := pp.BatchInGT(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batch {
				if ok[i] != pp.InGT(b) {
					t.Fatalf("trial %d item %d: batch %v, individual %v", trial, i, ok[i], pp.InGT(b))
				}
			}
		}
	})
}

func BenchmarkBatchInGT32(b *testing.B) {
	pp, err := Toy()
	if err != nil {
		b.Fatal(err)
	}
	g, err := pp.Pair(pp.Generator(), pp.Generator())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*GT, 32)
	for i := range batch {
		batch[i], err = g.Exp(big.NewInt(int64(i + 2)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.BatchInGT(batch); err != nil {
			b.Fatal(err)
		}
	}
}
