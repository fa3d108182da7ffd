package bench

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pairing"
)

// ThresholdConfig parameterizes the F2 sweep.
type ThresholdConfig struct {
	Pairing    *pairing.Params // defaults to the "fast" set for tolerable sweeps
	Thresholds []int           // t values; n = 2t−1 (honest majority, as §3.2 requires)
	MsgLen     int
	Iters      int // timing iterations per cell
}

// DefaultThresholdConfig is the F2 sweep used by EXPERIMENTS.md.
func DefaultThresholdConfig() ThresholdConfig {
	return ThresholdConfig{Thresholds: []int{1, 2, 3, 4, 6, 8}, MsgLen: 32, Iters: 3}
}

// ThresholdCell is one (t, n) measurement.
type ThresholdCell struct {
	T, N            int
	ShareTime       time.Duration // one player's ê(U, d_IDi)
	ProofTime       time.Duration // one player's share + NIZK proof
	VerifyProofTime time.Duration // recombiner checking one proof
	CombineTime     time.Duration // Lagrange recombination of t shares
	RobustTotal     time.Duration // check n proofs as one equation + recombine
}

// Threshold runs F2: threshold-IBE decryption cost versus (t, n = 2t−1),
// with and without robustness proofs.
//
// Expected shape: per-player share cost flat in t (one pairing);
// recombination linear in t (one t-term GT multi-exponentiation); the robust
// total grows linearly in n but at about one fixed-argument pairing per
// share — the verification-key constant ê(P_pub^(i), Q_ID) — because the n
// proofs are checked as one pairing equation, well under n single checks.
func Threshold(cfg ThresholdConfig) ([]ThresholdCell, error) {
	if cfg.Pairing == nil {
		pp, err := pairing.Fast()
		if err != nil {
			return nil, err
		}
		cfg.Pairing = pp
	}
	if cfg.MsgLen == 0 {
		cfg.MsgLen = 32
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	var cells []ThresholdCell
	for _, t := range cfg.Thresholds {
		n := 2*t - 1
		cell, err := thresholdCell(cfg, t, n)
		if err != nil {
			return nil, fmt.Errorf("t=%d: %w", t, err)
		}
		cells = append(cells, *cell)
	}
	return cells, nil
}

func thresholdCell(cfg ThresholdConfig, t, n int) (*ThresholdCell, error) {
	pkg, err := core.SetupThreshold(rand.Reader, cfg.Pairing, cfg.MsgLen, t, n)
	if err != nil {
		return nil, err
	}
	p := pkg.Params()
	id := "alice@example.com"
	keyShares := make([]*core.KeyShare, n)
	for i := 1; i <= n; i++ {
		ks, err := pkg.ExtractShare(id, i)
		if err != nil {
			return nil, err
		}
		// The paper's Keygen check, as an installing player runs it; it
		// also leaves the share's per-identity constant computed, so the
		// timings below are those of a serving player.
		if err := p.VerifyKeyShare(ks); err != nil {
			return nil, err
		}
		keyShares[i-1] = ks
	}
	msg := make([]byte, cfg.MsgLen)
	ct, err := p.Public.EncryptBasic(rand.Reader, id, msg)
	if err != nil {
		return nil, err
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

	cell := &ThresholdCell{T: t, N: n}
	if cell.ShareTime, err = timeIt(func() error {
		p.ComputeShare(keyShares[0], ct.U)
		return nil
	}); err != nil {
		return nil, err
	}
	var proved *core.DecryptionShare
	if cell.ProofTime, err = timeIt(func() error {
		proved, err = p.ComputeShareWithProof(rand.Reader, keyShares[0], ct.U)
		return err
	}); err != nil {
		return nil, err
	}
	if cell.VerifyProofTime, err = timeIt(func() error {
		return p.VerifyShareProof(id, ct.U, proved)
	}); err != nil {
		return nil, err
	}
	plain := make([]*core.DecryptionShare, t)
	for i := 0; i < t; i++ {
		if plain[i], err = p.ComputeShare(keyShares[i], ct.U); err != nil {
			return nil, err
		}
	}
	if cell.CombineTime, err = timeIt(func() error {
		_, err := p.CombineShares(plain)
		return err
	}); err != nil {
		return nil, err
	}
	robust := make([]*core.DecryptionShare, n)
	for i := 0; i < n; i++ {
		if robust[i], err = p.ComputeShareWithProof(rand.Reader, keyShares[i], ct.U); err != nil {
			return nil, err
		}
	}
	if cell.RobustTotal, err = timeIt(func() error {
		_, _, err := p.RobustDecrypt(id, robust, ct)
		return err
	}); err != nil {
		return nil, err
	}
	return cell, nil
}

// ThresholdTable renders F2 cells.
func ThresholdTable(cells []ThresholdCell, pp *pairing.Params) *Table {
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			fmt.Sprintf("(%d, %d)", c.T, c.N),
			c.ShareTime.Round(time.Microsecond).String(),
			c.ProofTime.Round(time.Microsecond).String(),
			c.VerifyProofTime.Round(time.Microsecond).String(),
			c.CombineTime.Round(time.Microsecond).String(),
			c.RobustTotal.Round(time.Microsecond).String(),
		})
	}
	caption := "threshold IBE decryption scaling vs (t, n = 2t−1)"
	if pp != nil {
		caption += fmt.Sprintf(" at |q|=%d, |p|=%d", pp.Q().BitLen(), pp.P().BitLen())
	}
	return &Table{
		ID:      "F2",
		Caption: caption,
		Columns: []string{"(t, n)", "share", "share+proof", "verify proof", "combine t", "robust total (n proofs)"},
		Rows:    rows,
		Notes: []string{
			"expected shape: share cost flat in t; combine linear in t; robust total linear in n at ≈ one fixed-argument pairing per share (the n proofs are one equation), well under n × verify proof",
		},
	}
}
