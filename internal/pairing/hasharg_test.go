package pairing

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"repro/internal/curve"
)

// TestHashPairerMatchesPairOfClearedHash pins the identity HashPairer rests
// on: for K ∈ G1 and every message, the program recorded for (c mod q)·K and
// replayed at the RAW hash point gives the bytes of ê(K, HashToPoint(msg)).
func TestHashPairerMatchesPairOfClearedHash(t *testing.T) {
	for name, pp := range allParams(t) {
		c := pp.Curve()
		keys := []*curve.Point{pp.Generator()}
		for len(keys) < 21 {
			k, err := c.RandomG1(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		pairers := make([]*HashPairer, len(keys))
		for i, k := range keys {
			var err error
			if pairers[i], err = pp.NewHashPairer(k); err != nil {
				t.Fatalf("%s: NewHashPairer(key %d): %v", name, i, err)
			}
		}
		for m := 0; m < 50; m++ {
			msg := []byte(fmt.Sprintf("message-%d@example.com", m))
			h, err := pp.HashArg("HASHARG-TEST", msg)
			if err != nil {
				t.Fatal(err)
			}
			cleared, err := c.HashToPoint("HASHARG-TEST", msg)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				got, err := pairers[i].Pair(h)
				if err != nil {
					t.Fatal(err)
				}
				if want := mustPair(t, pp, k, cleared); !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: key %d, message %d: HashPairer.Pair differs from Pair(K, HashToPoint(msg))", name, i, m)
				}
			}
		}
	}
}

// TestHashPairerRunsNoClearing: the point of the type — a hash paired
// through it costs no cofactor multiplication and no subgroup ladder.
func TestHashPairerRunsNoClearing(t *testing.T) {
	pp, _ := Fast()
	hp, err := pp.NewHashPairer(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	clears, checks := curve.CofactorClears(), curve.SubgroupChecks()
	h, err := pp.HashArg("HASHARG-TEST", []byte("counted"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hp.Pair(h); err != nil {
		t.Fatal(err)
	}
	if dc, ds := curve.CofactorClears()-clears, curve.SubgroupChecks()-checks; dc != 0 || ds != 0 {
		t.Fatalf("HashArg + HashPairer.Pair ran %d cofactor clearings and %d subgroup ladders, want 0 and 0", dc, ds)
	}
}

// TestNewHashPairerRefusesKeysOutsideG1: off G1, c·K and (c mod q)·K are
// different points, so the identity has nothing to stand on.
func TestNewHashPairerRefusesKeysOutsideG1(t *testing.T) {
	for name, pp := range allParams(t) {
		c := pp.Curve()
		k, _ := c.RandomG1(rand.Reader)
		bad := []*curve.Point{nil, c.Infinity()}
		for _, tc := range cofactorPoints(t, pp) {
			bad = append(bad, tc, k.Add(tc))
		}
		for i, b := range bad {
			_, err := pp.NewHashPairer(b)
			if err == nil {
				t.Fatalf("%s: NewHashPairer accepted bad key %d", name, i)
			}
			if b != nil && !errors.Is(err, curve.ErrNotInSubgroup) {
				t.Fatalf("%s: bad key %d: error %v, want ErrNotInSubgroup", name, i, err)
			}
		}
	}
}
