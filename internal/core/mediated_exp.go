package core

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/gm"
	"repro/internal/mathx"
	"repro/internal/mrsa"
	"repro/internal/rabin"
	"repro/internal/wire"
)

// ExpSEM is the mediator of every scheme whose private operation is one
// exponentiation in Z_n, split d = d_user + d_sem (mod φ(n)) by
// mathx.SplitExponent: mRSA / IB-mRSA, the paper's baseline, and the two
// extensions its conclusion conjectures — Goldwasser-Micali ("we conjecture
// the SEM method can also be integrated into many other existing public key
// cryptosystems including the Goldwasser-Micali probabilistic encryption")
// and the modified Rabin signature and SAEP encryption schemes, for which
// [18] gives threshold adaptations. The schemes differ only in how a request
// becomes the element the SEM exponentiates (an Operand). It plugs into the
// same Registry as the pairing SEMs, so one call revokes an identity in
// every scheme. Safe for concurrent use.
type ExpSEM struct {
	Mediator[*mathx.ExpHalf]
}

// NewExpSEM constructs a Z_n SEM over a (possibly shared) revocation
// registry.
func NewExpSEM(reg *Registry) *ExpSEM {
	return &ExpSEM{newMediator[*mathx.ExpHalf](reg)}
}

// Register installs an identity's SEM exponent half.
func (s *ExpSEM) Register(id string, half *mathx.ExpHalf) { s.keys.put(id, half) }

// An Operand derives the element the SEM exponentiates from the requesting
// identity's public modulus n, and refuses a request that does not give one.
type Operand func(n *big.Int) (*big.Int, error)

// HalfOp is the SEM step of every Z_n scheme: check revocation, derive the
// operand x from the identity's modulus, return x^{d_sem} mod n.
func (s *ExpSEM) HalfOp(id string, operand Operand) (*big.Int, error) {
	half, err := s.half(id)
	if err != nil {
		return nil, err
	}
	x, err := operand(half.N)
	if err != nil {
		return nil, err
	}
	return half.Op(x), nil
}

// HalfDecryptGM is HalfOp over a bitwise GM ciphertext: one revocation
// check, then every element range-checked as an Element operand is.
func (s *ExpSEM) HalfDecryptGM(id string, cs []*big.Int) ([]*big.Int, error) {
	half, err := s.half(id)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(cs))
	for i, c := range cs {
		if !inRange(c, half.N) {
			return nil, fmt.Errorf("core: GM ciphertext element %d out of range", i)
		}
		out[i] = half.Op(c)
	}
	return out, nil
}

// RSACiphertext is mediated RSA decryption's operand: the raw network
// payload decoded through wire.UnmarshalScalar against the identity's
// modulus, so an out-of-range value is refused before any arithmetic.
func RSACiphertext(payload []byte) Operand {
	return func(n *big.Int) (*big.Int, error) {
		c, err := wire.UnmarshalScalar(payload, n)
		if err != nil {
			return nil, fmt.Errorf("core: RSA ciphertext: %w", err)
		}
		return c, nil
	}
}

// RSAMessage is mediated RSA signing's operand: EMSA(msg) under the
// identity's modulus.
func RSAMessage(msg []byte) Operand {
	return func(n *big.Int) (*big.Int, error) { return mrsa.EMSA(msg, n) }
}

// Element is the operand of GM and Rabin: x itself, refused outside [1, n).
func Element(x *big.Int) Operand {
	return func(n *big.Int) (*big.Int, error) {
		if !inRange(x, n) {
			return nil, fmt.Errorf("core: operand out of range")
		}
		return x, nil
	}
}

func inRange(x, n *big.Int) bool { return x.Sign() > 0 && x.Cmp(n) < 0 }

// GMDecrypt runs the full two-party GM decryption in-process: the SEM's
// half-results, then the user's combination.
func GMDecrypt(sem *ExpSEM, id string, pk *gm.PublicKey, user *mathx.ExpHalf, cs []*big.Int) ([]byte, error) {
	semParts, err := sem.HalfDecryptGM(id, cs)
	if err != nil {
		return nil, err
	}
	return gm.Combine(pk, user, cs, semParts)
}

// RabinDecrypt runs the two-party SAEP decryption in-process.
//
//cryptolint:vartime (legacy math/big Rabin combination; the limb discipline does not apply to the mediated-Rabin scheme)
func RabinDecrypt(sem *ExpSEM, id string, pk *rabin.PublicKey, user *mathx.ExpHalf, ciphertext []byte, msgLen int) ([]byte, error) {
	c, err := pk.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	semPart, err := sem.HalfOp(id, Element(c))
	if err != nil {
		return nil, err
	}
	s := new(big.Int).Mul(user.Op(c), semPart)
	s.Mod(s, pk.N)
	return pk.FinishDecrypt(c, s, msgLen)
}

// RabinSign runs the two-party modified-Rabin signing protocol in-process:
// for each counter, both parties exponentiate the Jacobi-(+1) hash; the
// combination fails with ErrSignRetry when the hash was not a residue, and
// the protocol advances the counter (expected two rounds).
func RabinSign(sem *ExpSEM, id string, pk *rabin.PublicKey, user *mathx.ExpHalf, msg []byte) (*rabin.Signature, error) {
	for ctr := uint32(0); ctr < 128; ctr++ {
		h := rabin.HashToJacobiPlus(pk.N, msg, ctr)
		semPart, err := sem.HalfOp(id, Element(h))
		if err != nil {
			return nil, err
		}
		sig, err := rabin.CombineSignature(pk, msg, ctr, user.Op(h), semPart)
		if err == nil {
			return sig, nil
		}
		if !errors.Is(err, rabin.ErrSignRetry) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: no QR hash in 128 counters (astronomically unlikely)")
}
