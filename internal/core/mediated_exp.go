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
func (s *ExpSEM) Register(id string, half *mathx.ExpHalf) { s.put(id, half) }

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

// HalfOf is HalfOp for an element x of [1, n): the in-process SEM step of
// mediated-RSA decryption (DecryptRSA) and of Rabin (DecryptRabin,
// SignRabin).
func (s *ExpSEM) HalfOf(id string, x *big.Int) (*big.Int, error) {
	return s.HalfOp(id, element(x))
}

// HalfSignRSA is HalfOp for mediated-RSA signing: EMSA(msg)^{d_sem} under
// the identity's modulus. It is the SEM step of SignRSA and what the server
// answers rsa_half_sig with.
func (s *ExpSEM) HalfSignRSA(id string, msg []byte) (*big.Int, error) {
	return s.HalfOp(id, func(n *big.Int) (*big.Int, error) { return mrsa.EMSA(msg, n) })
}

// HalfDecryptGM is HalfOp over a bitwise GM ciphertext: one revocation
// check, then every element range-checked as HalfOf checks its operand.
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

// element is the operand of Rabin and of in-process RSA decryption: x
// itself, refused outside [1, n).
func element(x *big.Int) Operand {
	return func(n *big.Int) (*big.Int, error) {
		if !inRange(x, n) {
			return nil, fmt.Errorf("core: operand out of range")
		}
		return x, nil
	}
}

func inRange(x, n *big.Int) bool { return x.Sign() > 0 && x.Cmp(n) < 0 }

// DecryptRSA is mediated-RSA decryption, written once for the SEM in
// process and over the wire: the SEM step halfDecrypt (ExpSEM.HalfOf, or the
// client's RSAHalfDecrypt under pub) for c^{d_sem}, then mrsa.CombineDecrypt.
// The Z_n flows below have the same shape.
func DecryptRSA(pub *mrsa.PublicKey, id string, user *mathx.ExpHalf, ciphertext []byte, halfDecrypt func(id string, c *big.Int) (*big.Int, error)) ([]byte, error) {
	c, err := pub.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	semHalf, err := halfDecrypt(id, c)
	if err != nil {
		return nil, err
	}
	return mrsa.CombineDecrypt(pub, user, c, semHalf)
}

// SignRSA is mediated-RSA signing: halfSign (ExpSEM.HalfSignRSA, or the
// client's RSAHalfSign under pub), then mrsa.CombineSignature.
func SignRSA(pub *mrsa.PublicKey, id string, user *mathx.ExpHalf, msg []byte, halfSign func(id string, msg []byte) (*big.Int, error)) ([]byte, error) {
	semHalf, err := halfSign(id, msg)
	if err != nil {
		return nil, err
	}
	return mrsa.CombineSignature(pub, user, msg, semHalf)
}

// DecryptGM is mediated Goldwasser-Micali decryption: halfDecrypt
// (ExpSEM.HalfDecryptGM, or the client's GMHalfDecrypt), then gm.Combine.
func DecryptGM(pk *gm.PublicKey, id string, user *mathx.ExpHalf, cs []*big.Int, halfDecrypt func(id string, cs []*big.Int) ([]*big.Int, error)) ([]byte, error) {
	semParts, err := halfDecrypt(id, cs)
	if err != nil {
		return nil, err
	}
	return gm.Combine(pk, user, cs, semParts)
}

// DecryptRabin is mediated SAEP decryption: half (ExpSEM.HalfOf), then
// rabin.CombineDecrypt.
func DecryptRabin(pk *rabin.PublicKey, id string, user *mathx.ExpHalf, ciphertext []byte, msgLen int, half func(id string, x *big.Int) (*big.Int, error)) ([]byte, error) {
	c, err := pk.ParseCiphertext(ciphertext)
	if err != nil {
		return nil, err
	}
	semPart, err := half(id, c)
	if err != nil {
		return nil, err
	}
	return rabin.CombineDecrypt(pk, user, c, semPart, msgLen)
}

// SignRabin is mediated modified-Rabin signing: half (ExpSEM.HalfOf) of the
// Jacobi-(+1) hash, then rabin.CombineSignature, advancing the counter while
// it answers ErrSignRetry — the hash was not a residue (two rounds expected).
func SignRabin(pk *rabin.PublicKey, id string, user *mathx.ExpHalf, msg []byte, half func(id string, x *big.Int) (*big.Int, error)) (*rabin.Signature, error) {
	for ctr := uint32(0); ctr < 128; ctr++ {
		semPart, err := half(id, rabin.HashToJacobiPlus(pk.N, msg, ctr))
		if err != nil {
			return nil, err
		}
		sig, err := rabin.CombineSignature(pk, user, msg, ctr, semPart)
		if !errors.Is(err, rabin.ErrSignRetry) {
			return sig, err
		}
	}
	return nil, fmt.Errorf("core: no QR hash in 128 counters (astronomically unlikely)")
}
