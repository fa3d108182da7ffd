package keyfile

import (
	"crypto/rand"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/pairing"
)

// Threshold deployment artifacts, produced by `pkgen -threshold t,n` and
// consumed by cmd/thresholdd:
//
//	threshold.json          — public threshold parameters (everyone)
//	players/player-<i>.json — player i's identity-key shares (that player)

// ThresholdSystem is the public artifact of a threshold deployment.
type ThresholdSystem struct {
	ParamSet string `json:"paramSet"`
	// ParamDigest is ParamDigest of the set when the file was written.
	ParamDigest string `json:"paramDigest"`
	MsgLen      int    `json:"msgLen"`
	T           int    `json:"t"`
	N           int    `json:"n"`
	PPub        []byte `json:"ppub"`
	// VerificationKeys[i-1] is player i's compressed P_pub^(i).
	VerificationKeys [][]byte `json:"verificationKeys"`
}

// PlayerFile is one player's private artifact.
type PlayerFile struct {
	Index int `json:"index"`
	// Shares maps identity → compressed d_IDi.
	Shares map[string][]byte `json:"shares"`
}

// Params reconstructs the threshold parameters for verification and
// recombination.
func (ts *ThresholdSystem) Params() (*core.ThresholdParams, error) {
	pp, err := resolveParams(ts.ParamSet, ts.ParamDigest)
	if err != nil {
		return nil, err
	}
	ppub, err := pp.Curve().Unmarshal(ts.PPub)
	if err != nil {
		return nil, fmt.Errorf("threshold P_pub: %w", err)
	}
	vks := make([]*curve.Point, len(ts.VerificationKeys))
	for i, raw := range ts.VerificationKeys {
		if vks[i], err = pp.Curve().Unmarshal(raw); err != nil {
			return nil, fmt.Errorf("verification key %d: %w", i+1, err)
		}
	}
	return core.NewThresholdParams(pp, ts.MsgLen, ts.T, ts.N, ppub, vks)
}

// KeyShares decodes the player's identity-key shares.
func (pf *PlayerFile) KeyShares(params *core.ThresholdParams) ([]*core.KeyShare, error) {
	pp := params.Public.Pairing
	out := make([]*core.KeyShare, 0, len(pf.Shares))
	for id, raw := range pf.Shares {
		d, err := pp.Curve().Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("share for %q: %w", id, err) //cryptolint:public (the share-holder label, not the share)
		}
		out = append(out, &core.KeyShare{ID: id, Index: pf.Index, D: d})
	}
	return out, nil
}

// ThresholdDeployment is an in-progress threshold enrollment session.
type ThresholdDeployment struct {
	sys     *ThresholdSystem
	pkg     *core.ThresholdPKG
	players []*PlayerFile
	rng     io.Reader
}

// ThresholdDeploymentConfig configures NewThresholdDeployment.
type ThresholdDeploymentConfig struct {
	ParamSet string // default "paper"
	MsgLen   int    // default 32
	T, N     int
	Rand     io.Reader
}

// NewThresholdDeployment runs the dealer setup (use internal/dkg for the
// dealerless variant).
func NewThresholdDeployment(cfg ThresholdDeploymentConfig) (*ThresholdDeployment, error) {
	if cfg.ParamSet == "" {
		cfg.ParamSet = "paper"
	}
	if cfg.MsgLen == 0 {
		cfg.MsgLen = 32
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	pp, err := pairing.ByName(cfg.ParamSet)
	if err != nil {
		return nil, err
	}
	pkg, err := core.SetupThreshold(cfg.Rand, pp, cfg.MsgLen, cfg.T, cfg.N)
	if err != nil {
		return nil, err
	}
	params := pkg.Params()
	vks := make([][]byte, cfg.N)
	for i, vk := range params.VerificationKeys {
		vks[i] = vk.Marshal()
	}
	players := make([]*PlayerFile, cfg.N)
	for i := range players {
		players[i] = &PlayerFile{Index: i + 1, Shares: map[string][]byte{}}
	}
	return &ThresholdDeployment{
		sys: &ThresholdSystem{
			ParamSet:         cfg.ParamSet,
			ParamDigest:      ParamDigest(pp),
			MsgLen:           cfg.MsgLen,
			T:                cfg.T,
			N:                cfg.N,
			PPub:             params.Public.PPub.Marshal(),
			VerificationKeys: vks,
		},
		pkg:     pkg,
		players: players,
		rng:     cfg.Rand,
	}, nil
}

// Enroll issues every player's share for one identity.
func (d *ThresholdDeployment) Enroll(id string) error {
	for i := 1; i <= d.sys.N; i++ {
		if _, ok := d.players[i-1].Shares[id]; ok {
			return fmt.Errorf("keyfile: identity %q already enrolled", id)
		}
		ks, err := d.pkg.ExtractShare(id, i)
		if err != nil {
			return err
		}
		d.players[i-1].Shares[id] = ks.D.Marshal()
	}
	return nil
}

// System returns the public artifact.
func (d *ThresholdDeployment) System() *ThresholdSystem { return d.sys }

// Player returns player i's artifact.
func (d *ThresholdDeployment) Player(i int) (*PlayerFile, error) {
	if i < 1 || i > d.sys.N {
		return nil, fmt.Errorf("keyfile: player %d out of 1..%d", i, d.sys.N)
	}
	return d.players[i-1], nil
}

// Write lays the deployment out under dir: threshold.json plus
// players/player-<i>.json.
func (d *ThresholdDeployment) Write(dir string) error {
	if err := Save(filepath.Join(dir, "threshold.json"), d.sys, false); err != nil {
		return err
	}
	for _, pf := range d.players {
		path := filepath.Join(dir, "players", fmt.Sprintf("player-%d.json", pf.Index))
		if err := Save(path, pf, true); err != nil {
			return err
		}
	}
	return nil
}
