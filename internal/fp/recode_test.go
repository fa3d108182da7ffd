package fp

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestSignedBitsRecodes rebuilds the scalar from the recoding, for windows and
// for combs of several shapes: with every digit read back as ±(odd row value)
// the digits must sum to k̃, and k̃ must be the odd representative of ±k in
// [1, q) that neg and zero say it is.
func TestSignedBitsRecodes(t *testing.T) {
	rng := mrand.New(mrand.NewSource(28))
	for _, qs := range []string{"83", "fd51d491", "e10324209a11be3de5ba91918d7c367d", "8000000000000000000000000000000000020001", "d766107fb0eace0a6ccd9d42e9492ba8bf2298ed"} {
		q, _ := new(big.Int).SetString(qs, 16)
		bits := q.BitLen()
		scalars := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(q, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(2)),
			new(big.Int).Set(q), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(bits)), big.NewInt(1))}
		for i := 0; i < 200; i++ {
			scalars = append(scalars, new(big.Int).Rand(rng, q))
		}
		for _, shape := range [][2]int{{4, 1}, {1, 0}, {2, 0}, {6, 0}} { // {w, stride}: stride 0 means a comb of ⌈bits/w⌉
			w, stride := shape[0], shape[1]
			digits := (bits + w - 1) / w
			L := digits * w
			for _, k := range scalars {
				signs, neg, zero := SignedBits(k, q, L)
				sum := new(big.Int)
				for j := 0; j < digits; j++ {
					start, st := j*w, 1
					if stride == 0 {
						start, st = j, digits
					}
					row, plus := SignedDigit(signs, start, st, w)
					// The row's value: +2^((w−1)·st) and ±2^(t·st) below it.
					v := new(big.Int).Lsh(big.NewInt(1), uint((w-1)*st))
					for tt := 0; tt < w-1; tt++ {
						term := new(big.Int).Lsh(big.NewInt(1), uint(tt*st))
						if row>>uint(tt)&1 == 1 {
							v.Add(v, term)
						} else {
							v.Sub(v, term)
						}
					}
					if plus == 0 {
						v.Neg(v)
					}
					sum.Add(sum, v.Lsh(v, uint(start)))
				}
				want := new(big.Int).Mod(k, q)
				if neg == 1 {
					want.Sub(q, want)
				}
				if zero == 1 {
					want.SetInt64(1)
				}
				if (zero == 1) != (new(big.Int).Mod(k, q).Sign() == 0) || sum.Cmp(want) != 0 || sum.Bit(0) != 1 || sum.Sign() <= 0 || sum.Cmp(q) >= 0 {
					t.Fatalf("q=%v w=%d stride=%d k=%v: digits sum to %v, want %v (neg %d, zero %d)", q, w, stride, k, sum, want, neg, zero)
				}
			}
		}
	}
}

// TestLookup: every row comes back for its own index, and an index past the
// table reads as zero.
func TestLookup(t *testing.T) {
	const rows, width = 8, 5
	table := make([]uint64, rows*width)
	for i := range table {
		table[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	z := make([]uint64, width)
	for i := uint64(0); i <= rows; i++ {
		Lookup(z, table, i)
		for l := range z {
			want := uint64(0)
			if i < rows {
				want = table[int(i)*width+l]
			}
			if z[l] != want {
				t.Fatalf("row %d word %d: %x, want %x", i, l, z[l], want)
			}
		}
	}
}
