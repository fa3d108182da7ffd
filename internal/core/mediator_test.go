package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"testing"

	"repro/internal/curve"
	"repro/internal/gm"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/rabin"
)

// mediatorCase is one mediated scheme behind its SEM, with one identity
// enrolled. serve runs the scheme's flow for any identity, failing unless
// the result is correct; each of refused asks the SEM about an operand
// outside the scheme's range; lie, where the scheme has a user side, runs
// the flow against a SEM step whose answer is perturbed and is nil only if
// the completion refused it (caught).
type mediatorCase struct {
	name    string
	reg     *Registry
	serve   func(id string) error
	refused map[string]func(id string) error
	lie     func(id string) error
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
		ds, err := shareFor(player, id, u)
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
	pp := pkg.Public().Pairing
	g, err := pp.PairWithGenerator(pp.Generator())
	if err != nil {
		t.Fatal(err)
	}
	return mediatorCase{name: "ibe", reg: sem.Registry(), serve: func(id string) error {
		// The flow asks for its key's identity: id's key is the member's
		// half under id's name.
		return wantBytes(DecryptIBE(pkg.Public(), &UserKeyHalf{ID: id, D: user.D}, c, sem.TokenFor))(msg)
	}, lie: func(id string) error {
		return caught(DecryptIBE(pkg.Public(), user, c, lying(sem.TokenFor, func(token *pairing.GT) *pairing.GT { return token.Mul(g) })))
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
	return mediatorCase{name: "gdh", reg: sem.Registry(), serve: func(id string) error {
		as := *key
		as.ID = id
		_, err := SignGDH(&as, msg, sem.HalfSign) // verifies the combined signature
		return err
	}, lie: func(id string) error {
		return caught(SignGDH(key, msg, lying(sem.HalfSign, func(half *curve.Point) *curve.Point { return half.Add(key.Public.Pairing.Generator()) })))
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
	double := func(x *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Lsh(x, 1), pub.N) }
	return mediatorCase{name: "rsa", reg: sem.Registry(),
		serve: func(id string) error {
			if err := wantBytes(DecryptRSA(pub, id, user, ct, sem.HalfOf))(msg); err != nil {
				return err
			}
			_, err := SignRSA(pub, id, user, msg, sem.HalfSignRSA) // verifies
			return err
		},
		lie: func(id string) error {
			if err := caught(DecryptRSA(pub, id, user, ct, lying(sem.HalfOf, double))); err != nil {
				return err
			}
			return caught(SignRSA(pub, id, user, msg, lying(sem.HalfSignRSA, double)))
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
			return wantBytes(DecryptGM(sk.Public, id, user, cs, sem.HalfDecryptGM))(msg)
		},
		// Doubling one half makes its product ±2, neither +1 nor −1. (A
		// SEM that answers n − x flips that bit undetected: GM has no
		// integrity, DESIGN §6.)
		lie: func(id string) error {
			return caught(DecryptGM(sk.Public, id, user, cs, lying(sem.HalfDecryptGM, func(parts []*big.Int) []*big.Int {
				out := slices.Clone(parts)
				out[len(out)-1] = new(big.Int).Mod(new(big.Int).Lsh(out[len(out)-1], 1), sk.Public.N)
				return out
			})))
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
			_, err := sem.HalfOf(id, x)
			return err
		}
	}
	double := lying(sem.HalfOf, func(x *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Lsh(x, 1), sk.Public.N) })
	return mediatorCase{name: "rabin", reg: sem.Registry(),
		serve: func(id string) error {
			if err := wantBytes(DecryptRabin(sk.Public, id, user, ct, len(msg), sem.HalfOf))(msg); err != nil {
				return err
			}
			sig, err := SignRabin(sk.Public, id, user, msg, sem.HalfOf)
			if err != nil {
				return err
			}
			return sk.Public.Verify(msg, sig)
		},
		lie: func(id string) error {
			if err := caught(DecryptRabin(sk.Public, id, user, ct, len(msg), double)); err != nil {
				return err
			}
			return caught(SignRabin(sk.Public, id, user, msg, double))
		},
		refused: map[string]func(string) error{
			"0": element(big.NewInt(0)),
			"n": element(sk.Public.N),
		},
	}
}

// lying wraps a SEM step so that every answer it gives is perturbed by f.
func lying[X, A any](step func(string, X) (A, error), f func(A) A) func(string, X) (A, error) {
	return func(id string, x X) (A, error) {
		a, err := step(id, x)
		if err != nil {
			return a, err
		}
		return f(a), nil
	}
}

// caught is nil when a completion refused a lying SEM's answer: an error
// and no result.
func caught[T any](res T, err error) error {
	switch {
	case err == nil:
		return fmt.Errorf("a perturbed half was accepted: %v", res)
	case !reflect.ValueOf(&res).Elem().IsZero():
		return fmt.Errorf("refused (%v) but returned %v", err, res)
	}
	return nil
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
// with ErrUnknownIdentity — the Z_n SEMs to their operand ranges, and every
// scheme's completion to refusing a SEM half that is not the honest one.
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
			if m.lie != nil {
				if err := m.lie(mediatedID); err != nil {
					t.Errorf("lying SEM: %v", err)
				}
			}
		})
	}
}
