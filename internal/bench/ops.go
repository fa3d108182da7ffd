package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/mrsa"
)

// OpFunc is one timed operation body.
type OpFunc func() error

// Op is a named operation in the T3 matrix.
type Op struct {
	Scheme string // "mediated-ibe", "ib-mrsa", "mediated-gdh", "mrsa"
	Name   string // e.g. "encrypt", "decrypt.user", "decrypt.sem", "verify"
	Run    OpFunc
}

// Ops builds the full T3 operation matrix over a prepared World. Each entry
// is a closure that executes exactly one protocol step, so testing.B and
// the CLI's wall-clock loop measure the same bodies.
func Ops(w *World) ([]Op, error) {
	pub := w.IBEPKG.Public()
	msg := make([]byte, w.MsgLen)
	ct, err := pub.Encrypt(rand.Reader, w.ID, msg)
	if err != nil {
		return nil, err
	}
	token, err := w.IBESEM.Token(w.ID, ct.U)
	if err != nil {
		return nil, err
	}

	rsaMsg := msg[:min(w.MsgLen, w.RSAPub.MaxMessageLen())]
	rsaCT, err := w.RSAPub.EncryptOAEP(rand.Reader, rsaMsg)
	if err != nil {
		return nil, err
	}
	rsaCTInt := new(big.Int).SetBytes(rsaCT)

	sigMsg := []byte("t3 operation benchmark message")
	h, err := bls.HashMessage(w.Pairing, sigMsg)
	if err != nil {
		return nil, err
	}
	gdhSemHalf, err := w.GDHSEM.HalfSign(w.ID, h)
	if err != nil {
		return nil, err
	}
	gdhSig, err := core.UserSign(w.GDHUser, sigMsg, gdhSemHalf)
	if err != nil {
		return nil, err
	}
	rsaSemHalf, err := w.RSASEM.HalfSign(w.ID, sigMsg)
	if err != nil {
		return nil, err
	}
	rsaUserHalf, err := mrsa.SignHalf(w.RSAUser, sigMsg)
	if err != nil {
		return nil, err
	}
	rsaSig, err := mrsa.FinishSignature(w.RSAPub, sigMsg, rsaUserHalf, rsaSemHalf)
	if err != nil {
		return nil, err
	}

	return []Op{
		// --- encryption (sender side; SEM not involved: transparency) ---
		// A first message to a recipient hashes the identity onto the curve,
		// pairs it with P_pub and builds the recipient's GT comb; every
		// later one is two comb walks, of the generator and of that comb.
		{"mediated-ibe", "encrypt.first", encryptFirst(pub, msg)},
		{"mediated-ibe", "encrypt", func() error {
			_, err := pub.Encrypt(rand.Reader, w.ID, msg)
			return err
		}},
		{"ib-mrsa", "encrypt", func() error {
			_, err := w.RSAPub.EncryptOAEP(rand.Reader, rsaMsg)
			return err
		}},
		// --- decryption split by party ---
		{"mediated-ibe", "decrypt.sem", func() error {
			_, err := w.IBESEM.Token(w.ID, ct.U)
			return err
		}},
		{"mediated-ibe", "decrypt.user", func() error {
			_, err := core.UserDecrypt(pub, w.IBEUser, ct, token)
			return err
		}},
		{"mediated-ibe", "decrypt.total", func() error {
			_, err := core.Decrypt(w.IBESEM, w.IBEUser, ct)
			return err
		}},
		{"ib-mrsa", "decrypt.sem", func() error {
			_, err := w.RSASEM.HalfDecrypt(w.ID, rsaCTInt)
			return err
		}},
		{"ib-mrsa", "decrypt.user", func() error {
			half := w.RSAUser.Op(rsaCTInt)
			_ = half
			return nil
		}},
		{"ib-mrsa", "decrypt.total", func() error {
			_, err := mrsa.MediatedDecrypt(w.RSAPub, w.RSAUser, w.RSASEMK, rsaCT)
			return err
		}},
		// --- signing split by party ---
		{"mediated-gdh", "sign.sem", func() error {
			_, err := w.GDHSEM.HalfSign(w.ID, h)
			return err
		}},
		{"mediated-gdh", "sign.user", func() error {
			_, err := core.UserSign(w.GDHUser, sigMsg, gdhSemHalf)
			return err
		}},
		{"mediated-gdh", "sign.total", func() error {
			_, err := core.Sign(w.GDHSEM, w.GDHUser, sigMsg)
			return err
		}},
		{"mrsa", "sign.sem", func() error {
			_, err := w.RSASEM.HalfSign(w.ID, sigMsg)
			return err
		}},
		{"mrsa", "sign.user", func() error {
			_, err := mrsa.SignHalf(w.RSAUser, sigMsg)
			return err
		}},
		{"mrsa", "sign.total", func() error {
			hu, err := mrsa.SignHalf(w.RSAUser, sigMsg)
			if err != nil {
				return err
			}
			hs, err := w.RSASEM.HalfSign(w.ID, sigMsg)
			if err != nil {
				return err
			}
			_, err = mrsa.FinishSignature(w.RSAPub, sigMsg, hu, hs)
			return err
		}},
		// --- verification (relying party; no SEM, no revocation checks) ---
		{"mediated-gdh", "verify", func() error {
			return w.GDHUser.Public.Verify(sigMsg, gdhSig)
		}},
		{"mrsa", "verify", func() error {
			return w.RSAPub.Verify(sigMsg, rsaSig)
		}},
	}, nil
}

// encryptFirst returns a body that encrypts msg to an identity no earlier
// call has addressed — what a sender's first message to a recipient costs.
func encryptFirst(pub *bf.PublicParams, msg []byte) OpFunc {
	n := 0
	return func() error {
		n++
		_, err := pub.Encrypt(rand.Reader, fmt.Sprintf("first-%d@example.com", n), msg)
		return err
	}
}

// TimeOps runs T3 standalone (for cmd/benchtab): each op is repeated for at
// least minIters iterations and minDuration wall time, whichever is larger.
func TimeOps(w *World, minIters int, minDuration time.Duration) (*Table, error) {
	ops, err := Ops(w)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(ops))
	for _, op := range ops {
		iters := 0
		start := time.Now()
		for time.Since(start) < minDuration || iters < minIters {
			if err := op.Run(); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", op.Scheme, op.Name, err)
			}
			iters++
		}
		per := time.Since(start) / time.Duration(iters)
		rows = append(rows, []string{op.Scheme, op.Name, per.String(), fmt.Sprintf("%d", iters)})
	}
	return &Table{
		ID: "T3",
		Caption: fmt.Sprintf("per-operation computation (|q|=%d, |p|=%d pairing vs %d-bit RSA)",
			w.Pairing.Q().BitLen(), w.Pairing.P().BitLen(), w.RSAPub.N.BitLen()),
		Columns: []string{"scheme", "operation", "time/op", "iters"},
		Rows:    rows,
		Notes: []string{
			"expected shape: IB-mRSA decryption beats mediated-IBE decryption (pairings dominate) — the paper concedes this efficiency gap",
			"mediated-GDH signing is one scalar multiplication per party; its verification costs two pairings",
		},
	}, nil
}
