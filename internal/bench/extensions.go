package bench

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/gm"
	"repro/internal/pairing"
	"repro/internal/rabin"
)

// ExtensionsConfig parameterizes the EXT experiment (the paper-conclusion
// conjectures, DESIGN.md §6).
type ExtensionsConfig struct {
	Pairing   *pairing.Params // default: fast
	GMBits    int             // GM modulus, default 512
	RabinBits int             // Rabin modulus, default 1024
	Iters     int             // timing iterations, default 3
}

// Extensions measures the extension schemes: mediated GM, mediated
// Rabin-SAEP (+ modified-Rabin signature), dual-revocable signcryption and
// the joint-Feldman DKG.
func Extensions(cfg ExtensionsConfig) (*Table, error) {
	if cfg.Pairing == nil {
		pp, err := pairing.Fast()
		if err != nil {
			return nil, err
		}
		cfg.Pairing = pp
	}
	if cfg.GMBits == 0 {
		cfg.GMBits = 512
	}
	if cfg.RabinBits == 0 {
		cfg.RabinBits = 1024
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	timeIt := func(body func() error) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < cfg.Iters; i++ {
			if err := body(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(cfg.Iters), nil
	}
	var rows [][]string
	addRow := func(scheme, op string, body func() error) error {
		d, err := timeIt(body)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", scheme, op, err)
		}
		rows = append(rows, []string{scheme, op, d.Round(time.Microsecond).String()})
		return nil
	}

	// Mediated GM.
	gmKey, err := gm.GenerateKey(rand.Reader, cfg.GMBits)
	if err != nil {
		return nil, err
	}
	gmUser, gmSEMHalf, err := gm.Split(rand.Reader, gmKey)
	if err != nil {
		return nil, err
	}
	gmSEM := core.NewExpSEM(core.NewRegistry())
	gmSEM.Register("x", gmSEMHalf)
	gmMsg := []byte("extension probe")
	gmCT, err := gmKey.Public.Encrypt(rand.Reader, gmMsg)
	if err != nil {
		return nil, err
	}
	if err := addRow("mediated-gm", "encrypt-15B", func() error {
		_, err := gmKey.Public.Encrypt(rand.Reader, gmMsg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := addRow("mediated-gm", "decrypt-15B", func() error {
		_, err := core.DecryptGM(gmKey.Public, "x", gmUser, gmCT, gmSEM.HalfDecryptGM)
		return err
	}); err != nil {
		return nil, err
	}

	// Mediated Rabin.
	rbKey, err := rabin.GenerateKey(rand.Reader, cfg.RabinBits)
	if err != nil {
		return nil, err
	}
	rbUser, rbSEMHalf, err := rabin.Split(rand.Reader, rbKey)
	if err != nil {
		return nil, err
	}
	rbSEM := core.NewExpSEM(core.NewRegistry())
	rbSEM.Register("x", rbSEMHalf)
	rbCT, err := rbKey.Public.Encrypt(rand.Reader, gmMsg)
	if err != nil {
		return nil, err
	}
	if err := addRow("mediated-rabin", "decrypt", func() error {
		_, err := core.DecryptRabin(rbKey.Public, "x", rbUser, rbCT, len(gmMsg), rbSEM.HalfOf)
		return err
	}); err != nil {
		return nil, err
	}
	if err := addRow("mediated-rabin", "sign", func() error {
		_, err := core.SignRabin(rbKey.Public, "x", rbUser, gmMsg, rbSEM.HalfOf)
		return err
	}); err != nil {
		return nil, err
	}

	// Signcryption.
	reg := core.NewRegistry()
	pkg, err := core.NewMediatedPKG(rand.Reader, cfg.Pairing, 128)
	if err != nil {
		return nil, err
	}
	ibeSEM := core.NewIBESEM(pkg.Public(), reg)
	bobUser, bobSEM, err := pkg.SplitExtract(rand.Reader, "bob")
	if err != nil {
		return nil, err
	}
	ibeSEM.Register(bobSEM)
	ta := core.NewGDHAuthority(cfg.Pairing)
	gdhSEM := core.NewGDHSEM(cfg.Pairing, reg)
	alice, aliceSEM, err := ta.Keygen(rand.Reader, "alice")
	if err != nil {
		return nil, err
	}
	gdhSEM.Register(aliceSEM)
	sc := core.NewSigncrypter(pkg.Public(), ibeSEM.TokenFor, gdhSEM.HalfSign)
	scCT, err := sc.Signcrypt(rand.Reader, alice, "bob", gmMsg)
	if err != nil {
		return nil, err
	}
	if err := addRow("signcryption", "signcrypt", func() error {
		_, err := sc.Signcrypt(rand.Reader, alice, "bob", gmMsg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := addRow("signcryption", "designcrypt", func() error {
		_, err := sc.Designcrypt(bobUser, "alice", alice.Public, scCT)
		return err
	}); err != nil {
		return nil, err
	}

	// DKG.
	if err := addRow("dkg", "run(3,5)", func() error {
		_, _, err := dkg.Run(rand.Reader, cfg.Pairing, 3, 5, nil)
		return err
	}); err != nil {
		return nil, err
	}

	return &Table{
		ID: "EXT",
		Caption: fmt.Sprintf("extension schemes (paper-conclusion conjectures) at |q|=%d/|p|=%d pairing, %d-bit GM, %d-bit Rabin",
			cfg.Pairing.Q().BitLen(), cfg.Pairing.P().BitLen(), cfg.GMBits, cfg.RabinBits),
		Columns: []string{"scheme", "operation", "time/op"},
		Rows:    rows,
		Notes: []string{
			"GM pays 8 group elements per plaintext byte; Rabin-SAEP costs ≈ mRSA; signcryption = GDH-sign + FullIdent-encrypt",
		},
	}, nil
}
