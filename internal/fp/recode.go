package fp

import (
	"math/big"
	"math/bits"
)

// SignedBits conditions a secret scalar for a signed fixed-window or comb
// walk in a group of odd order q: the kernels under curve.ScalarMulSecret,
// curve.SecretComb and gf.UnitaryComb, which run the same operations for
// every scalar because every digit they cut from this recoding is odd, never
// zero and of one size.
//
// An odd k̃ < 2^L is the sum of L signed bits Σ bᵢ·2^i with b_{L−1} = +1 and
// bᵢ = +1 exactly when bit i+1 of k̃ is set. For 0 ≤ k < 2^|q| (the caller
// reduces anything else first) SignedBits picks k̃, the odd representative of
// ±k in [1, q), and returns those L sign bits as words — bit i set where
// bᵢ = +1, i.e. (k̃ >> 1) | 2^(L−1) — with neg = 1 when the walk's result must
// be inverted (k was even: k̃ = q − k) and zero = 1 when it must be replaced
// by the identity (k ≡ 0, for which k̃ = 1 stands in, so that k̃ < q always).
// L ≥ |q|. Everything is masks and selects on fixed-length words: no branch
// or index depends on k.
func SignedBits(k, q *big.Int, L int) (signs []uint64, neg, zero int) {
	n := L/64 + 1
	buf := make([]uint64, 3*n)
	kw, t, qw := buf[:n], buf[n:2*n], buf[2*n:]
	limbsFromBig(kw, k)
	limbsFromBig(qw, q)

	// k < 2^|q| ≤ 2q: at most one subtraction of q is left to do.
	under := subWords(t, kw, qw)
	Select(kw, kw, t, int(under))
	zero = IsZeroBit(kw)
	// An even k (0 among them) becomes the odd q − k.
	neg = 1 - int(kw[0]&1)
	subWords(t, qw, kw)
	Select(kw, t, kw, neg)
	// k ≡ 0 left k̃ = q, which is not below q: run on 1 instead.
	clear(t)
	t[0] = 1
	Select(kw, t, kw, zero)

	for i := 0; i < n-1; i++ {
		kw[i] = kw[i]>>1 | kw[i+1]<<63
	}
	kw[n-1] >>= 1
	kw[(L-1)/64] |= 1 << (uint(L-1) & 63)
	return kw, neg, zero
}

// SignedDigit reads one digit of SignedBits' recoding: the w sign bits at
// positions start, start + stride, … — adjacent bits for a window (stride 1),
// one column of a comb (stride d). With rows indexed by a digit's lower w − 1
// signs (bit t set for +) under a positive top sign, the digit is row's entry
// when plus = 1 and its negation when plus = 0.
func SignedDigit(signs []uint64, start, stride, w int) (row uint64, plus int) {
	var u uint64
	for t := 0; t < w; t++ {
		pos := uint(start + t*stride)
		u |= (signs[pos>>6] >> (pos & 63) & 1) << uint(t)
	}
	plus = int(u>>uint(w-1)) & 1
	return (u ^ (uint64(plus) - 1)) & (1<<uint(w-1) - 1), plus
}

// IsZeroBit returns 1 if x = 0 and 0 otherwise, without branching: IsZero's
// verdict in the form Select takes.
func IsZeroBit(x []uint64) int { return int(1 ^ nonzeroMask(orWords(x))&1) }

func orWords(x []uint64) (acc uint64) {
	for _, w := range x {
		acc |= w
	}
	return acc
}

// subWords sets z = x − y over equal-length little-endian words and returns
// the borrow.
func subWords(z, x, y []uint64) uint64 {
	var borrow uint64
	for i := range z {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	return borrow
}

// Lookup sets z to row idx of table — len(table)/len(z) consecutive rows of
// len(z) words — for a secret idx: every row is read and masked, so neither
// the addresses touched nor the time taken say which one was kept.
func Lookup(z, table []uint64, idx uint64) {
	clear(z)
	for i, rest := uint64(0), table; len(rest) >= len(z); i, rest = i+1, rest[len(z):] {
		keep := ^nonzeroMask(i ^ idx)
		row := rest[:len(z)]
		for l := range z {
			z[l] |= row[l] & keep
		}
	}
}
