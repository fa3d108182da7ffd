package keyfile

import (
	"crypto/rand"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/mrsa"
	"repro/internal/pairing"
)

// Deployment is an in-progress enrollment session: cmd/pkgen creates one,
// enrolls identities, and writes the resulting artifact set. The PKG state
// (master keys) lives only for the lifetime of this object — matching the
// paper's deployment where the PKG goes offline after key issuance.
type Deployment struct {
	sys   *System
	store *SEMStore
	users map[string]*User

	rng    io.Reader
	ibePKG *core.MediatedPKG
	gdhTA  *core.GDHAuthority
	rsaPKG *mrsa.IBPKG
}

// DeploymentConfig configures NewDeployment.
type DeploymentConfig struct {
	ParamSet string // "toy", "fast", "paper", "paper_dense"; default "paper"
	MsgLen   int    // default 32
	// RSABits enables the IB-mRSA baseline: 0 = disabled, 512/1024 use the
	// embedded fixed moduli, other sizes generate fresh safe primes (slow).
	RSABits int
	Rand    io.Reader // default crypto/rand
}

// NewDeployment initializes the PKGs.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
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
	ibePKG, err := core.NewMediatedPKG(cfg.Rand, pp, cfg.MsgLen)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		sys: &System{
			ParamSet:    cfg.ParamSet,
			ParamDigest: ParamDigest(pp),
			MsgLen:      cfg.MsgLen,
			PPub:        ibePKG.Public().PPub.Marshal(),
			GDHKeys:     map[string][]byte{},
		},
		store:  &SEMStore{IBE: map[string][]byte{}, GDH: map[string][]byte{}, RSA: map[string][]byte{}},
		users:  map[string]*User{},
		rng:    cfg.Rand,
		ibePKG: ibePKG,
		gdhTA:  core.NewGDHAuthority(pp),
	}
	switch cfg.RSABits {
	case 0:
		// baseline disabled
	case 512:
		if d.rsaPKG, err = mrsa.FixedTestPKG(); err != nil {
			return nil, err
		}
	case 1024:
		if d.rsaPKG, err = mrsa.FixedPaperPKG(); err != nil {
			return nil, err
		}
	default:
		if d.rsaPKG, err = mrsa.NewIBPKG(cfg.Rand, cfg.RSABits); err != nil {
			return nil, err
		}
	}
	if d.rsaPKG != nil {
		d.sys.RSAModulus = d.rsaPKG.Modulus().Bytes() //cryptolint:public (the modulus is public)
	}
	return d, nil
}

// Enroll issues and splits keys for one identity across all configured
// schemes.
func (d *Deployment) Enroll(id string) error {
	if _, ok := d.users[id]; ok {
		return fmt.Errorf("keyfile: identity %q already enrolled", id)
	}
	u := &User{ID: id}

	ibeUser, ibeSEM, err := d.ibePKG.SplitExtract(d.rng, id)
	if err != nil {
		return fmt.Errorf("enroll %q (ibe): %w", id, err)
	}
	u.IBEHalf = ibeUser.D.Marshal()
	d.store.IBE[id] = ibeSEM.D.Marshal()

	gdhUser, gdhSEM, err := d.gdhTA.Keygen(d.rng, id)
	if err != nil {
		return fmt.Errorf("enroll %q (gdh): %w", id, err)
	}
	u.GDHHalf = gdhUser.X.Bytes() //cryptolint:public (sanctioned keyfile serialization edge)
	u.GDHPublic = gdhUser.Public.R.Marshal()
	d.sys.GDHKeys[id] = gdhUser.Public.R.Marshal()
	d.store.GDH[id] = gdhSEM.X.Bytes() //cryptolint:public (sanctioned keyfile serialization edge)

	if d.rsaPKG != nil {
		rsaUser, rsaSEM, err := d.rsaPKG.IssueHalves(d.rng, id)
		if err != nil {
			return fmt.Errorf("enroll %q (rsa): %w", id, err)
		}
		u.RSAHalf = rsaUser.Half.Bytes()      //cryptolint:public (sanctioned keyfile serialization edge)
		d.store.RSA[id] = rsaSEM.Half.Bytes() //cryptolint:public (sanctioned keyfile serialization edge)
	}
	d.users[id] = u
	return nil
}

// System returns the public artifact.
func (d *Deployment) System() *System { return d.sys }

// Store returns the SEM artifact.
func (d *Deployment) Store() *SEMStore { return d.store }

// Users returns the enrolled identities.
func (d *Deployment) Users() []string {
	out := make([]string, 0, len(d.users))
	for id := range d.users {
		out = append(out, id)
	}
	return out
}

// Write lays the deployment out under dir:
//
//	dir/system.json, dir/sem-store.json, dir/users/<id>.json
func (d *Deployment) Write(dir string) error {
	if err := Save(filepath.Join(dir, "system.json"), d.sys, false); err != nil {
		return err
	}
	if err := Save(filepath.Join(dir, "sem-store.json"), d.store, true); err != nil {
		return err
	}
	for id, u := range d.users {
		path := filepath.Join(dir, "users", UserFileName(id))
		if err := Save(path, u, true); err != nil {
			return err
		}
	}
	return nil
}
