// Package rabin implements the modified Rabin encryption and signature
// schemes the paper's conclusion conjectures the SEM method extends to
// ("the modified Rabin signature and encryption schemes ([24]) for which
// efficient threshold adaptations have been described in [18]" — Katz &
// Yung). Encryption uses Boneh's SAEP padding.
//
// The threshold-friendly observation (Katz-Yung): over a Blum modulus
// n = pq (p ≡ q ≡ 3 mod 4) the quadratic-residue square root is a single
// exponentiation,
//
//	sqrt(c) = c^d with d = (φ(n)+4)/8,   for c a QR mod n,
//
// because (c^d)² = c^(φ/4 + 1) = c when c^(φ/4) = 1. A single
// exponentiation splits additively exactly like mRSA, so the SEM
// architecture transfers.
//
// Root disambiguation: the four square roots of c are {±x, ±y} with
// Jacobi(±x) = −Jacobi(±y) (for Blum moduli). Encryptors re-randomize the
// SAEP padding until the pre-square value x has Jacobi(x, n) = +1, making
// the exponentiation land on ±x; the SAEP redundancy then picks the sign.
// Signers loop a counter until the full-domain hash is an actual QR
// (checkable after the root computation: s² ≟ h), expected two attempts.
//
//cryptolint:vartime (legacy math/big scheme implementation; the limb discipline does not apply)
package rabin

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/mathx"
)

var (
	// ErrDecrypt is returned on any decryption failure (opaque on purpose).
	ErrDecrypt = errors.New("rabin: decryption error")

	// ErrVerify is returned when a signature does not verify.
	ErrVerify = errors.New("rabin: invalid signature")

	// ErrKeygen is returned when key material is inconsistent.
	ErrKeygen = errors.New("rabin: key generation error")

	// ErrMessageLength is returned when a plaintext exceeds the SAEP
	// capacity of the modulus.
	ErrMessageLength = errors.New("rabin: message too long")

	// ErrSignRetry is returned by half-signature combination when the
	// hashed message was not a quadratic residue; callers bump the counter
	// and retry (expected twice).
	ErrSignRetry = errors.New("rabin: hash not a quadratic residue, retry with next counter")
)

var one = big.NewInt(1)

const (
	saepRandLen = 16 // SAEP randomizer bytes (r)
	saepZeroLen = 8  // SAEP redundancy bytes (s0 zeros)
)

// PublicKey is the Rabin public key: just the Blum modulus.
type PublicKey struct {
	N *big.Int
}

// PrivateKey holds the square-root exponent d = (φ(n)+4)/8 and φ(n).
//
//cryptolint:secret
type PrivateKey struct {
	Public *PublicKey //cryptolint:public (the public key)
	D      *big.Int
	Phi    *big.Int
}

// GenerateKey creates a Rabin key with a bits-size Blum modulus.
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	p, err := blumPrime(rng, bits/2)
	if err != nil {
		return nil, err
	}
	q, err := blumPrime(rng, bits-bits/2)
	if err != nil {
		return nil, err
	}
	for p.Cmp(q) == 0 {
		if q, err = blumPrime(rng, bits-bits/2); err != nil {
			return nil, err
		}
	}
	return KeyFromPrimes(p, q)
}

// KeyFromPrimes assembles a key from explicit Blum primes.
func KeyFromPrimes(p, q *big.Int) (*PrivateKey, error) {
	if p.Bit(0) != 1 || p.Bit(1) != 1 || q.Bit(0) != 1 || q.Bit(1) != 1 {
		return nil, fmt.Errorf("%w: primes must be ≡ 3 (mod 4)", ErrKeygen)
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) || p.Cmp(q) == 0 {
		return nil, fmt.Errorf("%w: need two distinct primes", ErrKeygen)
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)
	d := new(big.Int).Add(phi, big.NewInt(4))
	d.Rsh(d, 3) // (φ+4)/8; φ ≡ 4 (mod 8) for Blum primes
	pk := &PublicKey{N: n}
	if pk.MaxMessageLen() < 1 {
		return nil, fmt.Errorf("%w: modulus too small for SAEP (need ≥ %d bits)",
			ErrKeygen, (saepRandLen+saepZeroLen+1)*8+2)
	}
	return &PrivateKey{Public: pk, D: d, Phi: phi}, nil
}

func blumPrime(rng io.Reader, bits int) (*big.Int, error) {
	for {
		p, err := mathx.RandomPrime(rng, bits)
		if err != nil {
			return nil, err
		}
		if p.Bit(0) == 1 && p.Bit(1) == 1 {
			return p, nil
		}
	}
}

// MaxMessageLen returns the SAEP plaintext capacity of the key.
func (pk *PublicKey) MaxMessageLen() int {
	k := (pk.N.BitLen() - 2) / 8 // stay below n
	return k - saepRandLen - saepZeroLen
}

// saepPad builds x = ((m ‖ 0^s0) ⊕ G(r)) ‖ r for a fresh randomizer r.
func saepPad(rng io.Reader, msg []byte, k int) (*big.Int, error) {
	bodyLen := k - saepRandLen
	body := make([]byte, bodyLen)
	copy(body, msg)
	// zero redundancy already in place (bytes len(msg)..bodyLen)
	r := make([]byte, saepRandLen)
	if _, err := io.ReadFull(rng, r); err != nil {
		return nil, fmt.Errorf("saep randomizer: %w", err)
	}
	mask := expand("RABIN-SAEP-G", r, bodyLen)
	subtle.XORBytes(body, body, mask)
	buf := make([]byte, k)
	copy(buf, body)
	copy(buf[bodyLen:], r)
	return new(big.Int).SetBytes(buf), nil
}

// saepUnpad inverts saepPad, checking the zero redundancy. msgLen is the
// expected plaintext length.
func saepUnpad(x *big.Int, k, msgLen int) ([]byte, error) {
	buf, err := mathx.PadBytes(x, k)
	if err != nil {
		return nil, ErrDecrypt
	}
	bodyLen := k - saepRandLen
	body := buf[:bodyLen]
	r := buf[bodyLen:]
	mask := expand("RABIN-SAEP-G", r, bodyLen)
	subtle.XORBytes(body, body, mask)
	if msgLen > bodyLen-saepZeroLen {
		return nil, ErrDecrypt
	}
	for _, b := range body[msgLen:] {
		if b != 0 {
			return nil, ErrDecrypt
		}
	}
	return body[:msgLen], nil
}

// Encrypt produces c = x² mod n for SAEP-padded x with Jacobi(x, n) = +1,
// re-randomizing until the Jacobi condition holds (expected two tries).
func (pk *PublicKey) Encrypt(rng io.Reader, msg []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if len(msg) > pk.MaxMessageLen() {
		return nil, fmt.Errorf("%w: %d > %d", ErrMessageLength, len(msg), pk.MaxMessageLen())
	}
	k := (pk.N.BitLen() - 2) / 8
	for attempt := 0; attempt < 256; attempt++ {
		x, err := saepPad(rng, msg, k)
		if err != nil {
			return nil, err
		}
		if x.Sign() == 0 || big.Jacobi(x, pk.N) != 1 {
			continue
		}
		c := new(big.Int).Mul(x, x)
		c.Mod(c, pk.N)
		return mathx.PadBytes(c, pk.ModulusBytes())
	}
	return nil, fmt.Errorf("rabin: could not find a Jacobi-(+1) padding (broken RNG?)")
}

// ModulusBytes returns the modulus size in bytes.
func (pk *PublicKey) ModulusBytes() int { return (pk.N.BitLen() + 7) / 8 }

// Decrypt recovers a msgLen-byte plaintext with the full key.
func (sk *PrivateKey) Decrypt(ciphertext []byte, msgLen int) ([]byte, error) {
	c, err := sk.Public.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	s := new(big.Int).Exp(c, sk.D, sk.Public.N)
	return sk.Public.finishDecrypt(c, s, msgLen)
}

// ParseCiphertext validates the wire form: exactly ModulusBytes long, and
// an element of [1, n).
func (pk *PublicKey) ParseCiphertext(ciphertext []byte) (*big.Int, error) {
	if len(ciphertext) != pk.ModulusBytes() {
		return nil, ErrDecrypt
	}
	c := new(big.Int).SetBytes(ciphertext)
	if c.Sign() == 0 || c.Cmp(pk.N) >= 0 {
		return nil, ErrDecrypt
	}
	return c, nil
}

// finishDecrypt completes decryption given the computed root s = c^d
// (however the exponentiation was assembled): verify s² ≡ c, then try both
// signs through the SAEP decoder.
func (pk *PublicKey) finishDecrypt(c, s *big.Int, msgLen int) ([]byte, error) {
	check := new(big.Int).Mul(s, s)
	check.Mod(check, pk.N)
	if check.Cmp(c) != 0 {
		return nil, ErrDecrypt // c was not a QR: invalid ciphertext
	}
	k := (pk.N.BitLen() - 2) / 8
	if msg, err := saepUnpad(s, k, msgLen); err == nil {
		return msg, nil
	}
	neg := new(big.Int).Sub(pk.N, s)
	if msg, err := saepUnpad(neg, k, msgLen); err == nil {
		return msg, nil
	}
	return nil, ErrDecrypt
}

// Split divides d into user and SEM halves mod φ(n), mirroring the mRSA
// split.
func Split(rng io.Reader, sk *PrivateKey) (user, sem *mathx.ExpHalf, err error) {
	return mathx.SplitExponent(rng, sk.Public.N, sk.D, sk.Phi)
}

// CombineDecrypt is the user's side of mediated decryption, wherever the
// SEM's half semPart = c^{d_sem} came from: it joins the user's half for c
// to it and completes as Decrypt does, so a root with s² ≢ c — a lying SEM
// or an invalid ciphertext — is refused (ErrDecrypt).
func CombineDecrypt(pk *PublicKey, user *mathx.ExpHalf, c, semPart *big.Int, msgLen int) ([]byte, error) {
	return pk.finishDecrypt(c, user.Combine(c, semPart), msgLen)
}

// HashToJacobiPlus maps (msg, ctr) to an element h < n with
// Jacobi(h, n) = +1, incrementing an inner counter as needed. It is the
// public "full-domain hash" of the modified Rabin signature; the outer ctr
// lets the signer skip hashes that turn out to be non-residues.
func HashToJacobiPlus(n *big.Int, msg []byte, ctr uint32) *big.Int {
	size := (n.BitLen()+7)/8 + 16
	for inner := uint32(0); ; inner++ {
		var seed [8]byte
		binary.BigEndian.PutUint32(seed[:4], ctr)
		binary.BigEndian.PutUint32(seed[4:], inner)
		digest := expand("RABIN-FDH", append(seed[:], msg...), size)
		h := new(big.Int).SetBytes(digest)
		h.Mod(h, n)
		if h.Sign() != 0 && big.Jacobi(h, n) == 1 {
			return h
		}
	}
}

// Signature is a modified-Rabin signature: the root plus the counter that
// made the hash a quadratic residue.
type Signature struct {
	S   *big.Int
	Ctr uint32
}

// Sign produces a signature with the full key, searching counters until
// the hash is a QR (expected two attempts).
func (sk *PrivateKey) Sign(msg []byte) (*Signature, error) {
	for ctr := uint32(0); ctr < 128; ctr++ {
		h := HashToJacobiPlus(sk.Public.N, msg, ctr)
		s := new(big.Int).Exp(h, sk.D, sk.Public.N)
		check := new(big.Int).Mul(s, s)
		check.Mod(check, sk.Public.N)
		if check.Cmp(h) == 0 {
			return &Signature{S: s, Ctr: ctr}, nil
		}
	}
	return nil, fmt.Errorf("rabin: no QR hash found in 128 counters (astronomically unlikely)")
}

// CombineSignature is the user's side of mediated signing for one counter,
// wherever the SEM's half semPart = h^{d_sem} of h = H(msg, ctr) came from:
// it joins the user's half to it and returns the root s when s² ≡ h. When
// s² ≡ −h the halves are honest and h is not a residue (h has Jacobi symbol
// +1, so h^(φ/4) ≡ −1): it returns ErrSignRetry, and the caller advances the
// counter and asks the SEM again. Any other s is refused with ErrVerify: the
// SEM's half was not h^{d_sem}.
func CombineSignature(pk *PublicKey, user *mathx.ExpHalf, msg []byte, ctr uint32, semPart *big.Int) (*Signature, error) {
	h := HashToJacobiPlus(pk.N, msg, ctr)
	s := user.Combine(h, semPart)
	check := mathx.MulMod(s, s, pk.N)
	switch {
	case check.Cmp(h) == 0:
		return &Signature{S: s, Ctr: ctr}, nil
	case check.Add(check, h).Cmp(pk.N) == 0:
		return nil, ErrSignRetry
	}
	return nil, fmt.Errorf("%w: the SEM's half does not complete a root", ErrVerify)
}

// Verify checks s² ≡ H(msg, ctr) (mod n).
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.S.Sign() <= 0 || sig.S.Cmp(pk.N) >= 0 {
		return ErrVerify
	}
	h := HashToJacobiPlus(pk.N, msg, sig.Ctr)
	check := new(big.Int).Mul(sig.S, sig.S)
	check.Mod(check, pk.N)
	if check.Cmp(h) != 0 {
		return ErrVerify
	}
	return nil
}

// expand is counter-mode SHA-256 expansion with domain separation.
func expand(domain string, seed []byte, n int) []byte {
	out := make([]byte, 0, ((n+31)/32)*32)
	var block uint32
	for len(out) < n {
		h := sha256.New()
		var be [4]byte
		binary.BigEndian.PutUint32(be[:], block)
		h.Write([]byte(domain))
		h.Write(be[:])
		h.Write(seed)
		out = h.Sum(out)
		block++
	}
	return out[:n]
}
