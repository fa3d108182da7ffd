package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/gm"
	"repro/internal/mrsa"
	"repro/internal/rabin"
)

// mediatorCase is one mediated scheme behind its SEM, with one identity
// enrolled. serve runs the SEM step for any identity and completes it with
// the enrolled user's half, failing unless the result is correct; each of
// refused asks the SEM about an operand outside the scheme's range.
type mediatorCase struct {
	name    string
	reg     *Registry
	serve   func(id string) error
	refused map[string]func(id string) error
}

const mediatedID = "member@example.com"

func mediatorCases(t *testing.T) []mediatorCase {
	t.Helper()
	return []mediatorCase{ibeCase(t), ibeXCase(t), gdhCase(t), rsaCase(t), gmCase(t), rabinCase(t), thresholdCase(t)}
}

// thresholdCase is a threshold player, the SEM whose key halves are shares:
// serving is a share whose proof verifies.
func thresholdCase(t *testing.T) mediatorCase {
	pkg, player := playerFixture(t)
	installShare(t, pkg, player, mediatedID)
	u, err := pkg.Params().Public.Pairing.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return mediatorCase{name: "threshold", reg: player.Registry(), serve: func(id string) error {
		ds, err := player.Share(id, u)
		if err != nil {
			return err
		}
		return pkg.Params().VerifyShareProof(id, u, ds)
	}}
}

func ibeCase(t *testing.T) mediatorCase {
	pkg, sem := ibeFixture(t)
	user := enroll(t, pkg, sem, mediatedID)
	msg := bytes.Repeat([]byte{0x5e}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, mediatedID, msg)
	if err != nil {
		t.Fatal(err)
	}
	return mediatorCase{name: "ibe", reg: sem.Registry(), serve: func(id string) error {
		token, err := sem.Token(id, c.U)
		if err != nil {
			return err
		}
		return wantBytes(UserDecrypt(pkg.Public(), user, c, token))(msg)
	}}
}

// ibeXCase is the IBE SEM answering from U's abscissa (TokenX), the token
// resolved with U's y as the networked client does.
func ibeXCase(t *testing.T) mediatorCase {
	pkg, sem := ibeFixture(t)
	user := enroll(t, pkg, sem, mediatedID)
	msg := bytes.Repeat([]byte{0x5e}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, mediatedID, msg)
	if err != nil {
		t.Fatal(err)
	}
	ux, err := pkg.Public().Pairing.Curve().UnmarshalX(c.U.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return mediatorCase{name: "ibe_x", reg: sem.Registry(), serve: func(id string) error {
		token, err := sem.TokenX(id, ux)
		if err != nil {
			return err
		}
		return wantBytes(UserDecrypt(pkg.Public(), user, c, resolveToken(t, pkg.Public().Pairing, token, c.U)))(msg)
	}, refused: map[string]func(id string) error{
		"O": func(id string) error {
			_, err := sem.TokenX(id, curve.EvalX{})
			return err
		},
	}}
}

func gdhCase(t *testing.T) mediatorCase {
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, mediatedID)
	msg := []byte("the contract text")
	h, err := bls.HashMessage(key.Public.Pairing, msg)
	if err != nil {
		t.Fatal(err)
	}
	return mediatorCase{name: "gdh", reg: sem.Registry(), serve: func(id string) error {
		half, err := sem.HalfSign(id, h)
		if err != nil {
			return err
		}
		_, err = UserSign(key, msg, half) // verifies the combined signature
		return err
	}}
}

func rsaCase(t *testing.T) mediatorCase {
	pkg, err := mrsa.FixedTestPKG()
	if err != nil {
		t.Fatal(err)
	}
	user, semHalf, err := pkg.IssueHalves(nil, mediatedID)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewExpSEM(NewRegistry())
	sem.Register(mediatedID, semHalf)
	pub := pkg.IdentityPublicKey(mediatedID)
	msg := []byte("ib-mrsa")
	ct, err := pub.EncryptOAEP(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	c := new(big.Int).SetBytes(ct)
	return mediatorCase{name: "rsa", reg: sem.Registry(),
		serve: func(id string) error {
			semPart, err := sem.HalfOp(id, RSACiphertext(ct))
			if err != nil {
				return err
			}
			if err := wantBytes(mrsa.FinishDecrypt(pub, mrsa.Combine(pub.N, user.Op(c), semPart)))(msg); err != nil {
				return err
			}
			semSig, err := sem.HalfOp(id, RSAMessage(msg))
			if err != nil {
				return err
			}
			userSig, err := mrsa.SignHalf(user, msg)
			if err != nil {
				return err
			}
			_, err = mrsa.FinishSignature(pub, msg, userSig, semSig) // verifies
			return err
		},
		refused: map[string]func(string) error{
			"n": func(id string) error {
				_, err := sem.HalfOp(id, RSACiphertext(pub.N.Bytes()))
				return err
			},
			"wider than n": func(id string) error {
				_, err := sem.HalfOp(id, RSACiphertext(bytes.Repeat([]byte{0xff}, pub.ModulusBytes()+1)))
				return err
			},
		},
	}
}

func gmCase(t *testing.T) mediatorCase {
	sk, err := gm.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	user, semHalf, err := gm.Split(nil, sk)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewExpSEM(NewRegistry())
	sem.Register(mediatedID, semHalf)
	msg := []byte("gm")
	cs, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	// One honest element first: the check is per element, not on the
	// vector's head.
	elements := func(bad *big.Int) func(string) error {
		return func(id string) error {
			_, err := sem.HalfDecryptGM(id, []*big.Int{cs[0], bad})
			return err
		}
	}
	return mediatorCase{name: "gm", reg: sem.Registry(),
		serve: func(id string) error {
			return wantBytes(GMDecrypt(sem, id, sk.Public, user, cs))(msg)
		},
		refused: map[string]func(string) error{
			"0": elements(big.NewInt(0)),
			"n": elements(sk.Public.N),
		},
	}
}

func rabinCase(t *testing.T) mediatorCase {
	sk, err := rabin.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	user, semHalf, err := rabin.Split(nil, sk)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewExpSEM(NewRegistry())
	sem.Register(mediatedID, semHalf)
	msg := []byte("rabin")
	ct, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	element := func(x *big.Int) func(string) error {
		return func(id string) error {
			_, err := sem.HalfOp(id, Element(x))
			return err
		}
	}
	return mediatorCase{name: "rabin", reg: sem.Registry(),
		serve: func(id string) error {
			if err := wantBytes(RabinDecrypt(sem, id, sk.Public, user, ct, len(msg)))(msg); err != nil {
				return err
			}
			sig, err := RabinSign(sem, id, sk.Public, user, msg)
			if err != nil {
				return err
			}
			return sk.Public.Verify(msg, sig)
		},
		refused: map[string]func(string) error{
			"0": element(big.NewInt(0)),
			"n": element(sk.Public.N),
		},
	}
}

// wantBytes turns a (plaintext, error) result into a check against want.
func wantBytes(got []byte, err error) func(want []byte) error {
	return func(want []byte) error {
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("got %x, want %x", got, want)
		}
		return nil
	}
}

// TestMediators holds every SEM, threshold players included, to the paper's
// revocation contract — an enrolled identity is served, a revoked one
// refused with ErrRevoked until it is reinstated, an unknown one refused
// with ErrUnknownIdentity — and the Z_n SEMs to their operand ranges.
func TestMediators(t *testing.T) {
	for _, m := range mediatorCases(t) {
		t.Run(m.name, func(t *testing.T) {
			if err := m.serve(mediatedID); err != nil {
				t.Fatalf("enrolled identity: %v", err)
			}
			if err := m.serve("ghost@example.com"); !errors.Is(err, ErrUnknownIdentity) {
				t.Errorf("unknown identity: %v, want ErrUnknownIdentity", err)
			}
			m.reg.Revoke(mediatedID, "test")
			if err := m.serve(mediatedID); !errors.Is(err, ErrRevoked) {
				t.Errorf("revoked identity: %v, want ErrRevoked", err)
			}
			m.reg.Unrevoke(mediatedID)
			if err := m.serve(mediatedID); err != nil {
				t.Errorf("reinstated identity: %v", err)
			}
			for name, refuse := range m.refused {
				if err := refuse(mediatedID); err == nil {
					t.Errorf("operand %s accepted", name)
				}
			}
		})
	}
}
