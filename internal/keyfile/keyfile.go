// Package keyfile defines the JSON artifacts the command-line tools
// exchange: cmd/pkgen writes them at enrollment time, cmd/semd loads the
// SEM store, and cmd/medcli loads a user's credentials. Binary values are
// []byte fields (base64 in JSON); points use the compressed encoding.
//
// Layout produced by pkgen for a deployment directory:
//
//	system.json         — public parameters (everyone)
//	sem-store.json      — every identity's SEM key halves (semd only)
//	users/<id>.json     — one user's private halves (that user only)
package keyfile

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/mrsa"
	"repro/internal/pairing"
)

// System is the public side of a deployment.
type System struct {
	// ParamSet names the fixed pairing parameter set ("toy", "fast",
	// "paper", "paper_dense").
	ParamSet string `json:"paramSet"`
	// ParamDigest is ParamDigest of that set when the file was written.
	ParamDigest string `json:"paramDigest"`
	// MsgLen is the IBE plaintext length in bytes.
	MsgLen int `json:"msgLen"`
	// PPub is the compressed Boneh-Franklin system key s·P.
	PPub []byte `json:"ppub"`
	// RSAModulus is the IB-mRSA common modulus (big-endian).
	RSAModulus []byte `json:"rsaModulus,omitempty"`
	// GDHKeys maps identities to their compressed GDH public keys R.
	GDHKeys map[string][]byte `json:"gdhKeys,omitempty"`
}

// SEMStore is the mediator's key material for all identities.
//
//cryptolint:secret
type SEMStore struct {
	// IBE maps identity → compressed d_ID,sem.
	IBE map[string][]byte `json:"ibe,omitempty"`
	// GDH maps identity → x_sem (big-endian scalar).
	GDH map[string][]byte `json:"gdh,omitempty"`
	// RSA maps identity → d_sem (big-endian).
	RSA map[string][]byte `json:"rsa,omitempty"`
}

// User is one user's private credential file.
//
//cryptolint:secret
type User struct {
	ID string `json:"id"`
	// IBEHalf is the compressed d_ID,user.
	IBEHalf []byte `json:"ibeHalf,omitempty"`
	// GDHHalf is x_user (big-endian scalar).
	GDHHalf []byte `json:"gdhHalf,omitempty"`
	// GDHPublic is the compressed combined public key R.
	GDHPublic []byte `json:"gdhPublic,omitempty"`
	// RSAHalf is d_user (big-endian).
	RSAHalf []byte `json:"rsaHalf,omitempty"`
}

// Save writes v as indented JSON with owner-only permissions for private
// material.
func Save(path string, v any, private bool) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	mode := os.FileMode(0o644)
	if private {
		mode = 0o600
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create directory for %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), mode); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// Load reads a JSON artifact into v.
func Load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// UserFileName maps an identity to its credential file name (identities
// may contain '/' or other separators).
func UserFileName(id string) string {
	repl := strings.NewReplacer("/", "_", "\\", "_", ":", "_", "@", "_at_")
	return repl.Replace(id) + ".json"
}

// Params resolves the system's pairing parameter set.
func (s *System) Params() (*pairing.Params, error) {
	return resolveParams(s.ParamSet, s.ParamDigest)
}

// ParamDigest is the hex form of pp.Digest(): what a system file records
// beside the set's name, so a file written for one set is refused, not
// misread, under another of that name.
func ParamDigest(pp *pairing.Params) string {
	d := pp.Digest()
	return hex.EncodeToString(d[:])
}

// ParamSetError is Params' answer to a system file whose parameter digest is
// missing or is not the digest of the set it names: a deployment written for
// another set of that name, such as "paper" before its order was made sparse.
type ParamSetError struct {
	Set  string // the file's parameter set name
	Got  string // the file's digest; "" when it records none
	Want string // the digest of this build's set of that name
}

func (e *ParamSetError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("keyfile: parameter set %q: the file records no parameter digest, so it predates them and may be for another set of that name; regenerate the deployment", e.Set)
	}
	return fmt.Sprintf("keyfile: parameter set %q: the file was written for parameters with digest %s, this build's %q has %s; regenerate the deployment", e.Set, e.Got, e.Set, e.Want)
}

// resolveParams looks a parameter set up by name and holds it to the digest
// the file recorded.
func resolveParams(name, digest string) (*pairing.Params, error) {
	pp, err := pairing.ByName(name)
	if err != nil {
		return nil, err
	}
	if want := ParamDigest(pp); digest != want {
		return nil, &ParamSetError{Set: name, Got: digest, Want: want}
	}
	return pp, nil
}

// PublicParams rebuilds the Boneh-Franklin public parameters.
func (s *System) PublicParams() (*bf.PublicParams, error) {
	pp, err := s.Params()
	if err != nil {
		return nil, err
	}
	ppub, err := pp.Curve().Unmarshal(s.PPub)
	if err != nil {
		return nil, fmt.Errorf("system P_pub: %w", err)
	}
	return &bf.PublicParams{Pairing: pp, PPub: ppub, MsgLen: s.MsgLen}, nil
}

// RSAPublicKey returns the IB-mRSA public key for an identity.
func (s *System) RSAPublicKey(id string) (*mrsa.PublicKey, error) {
	if len(s.RSAModulus) == 0 {
		return nil, fmt.Errorf("keyfile: system has no RSA modulus")
	}
	return &mrsa.PublicKey{
		N: new(big.Int).SetBytes(s.RSAModulus), //cryptolint:public (sanctioned keyfile serialization edge; the modulus is public)
		E: mrsa.IdentityExponent(id),
	}, nil
}

// GDHPublicKey returns an identity's GDH verification key.
func (s *System) GDHPublicKey(id string) (*bls.PublicKey, error) {
	raw, ok := s.GDHKeys[id]
	if !ok {
		return nil, fmt.Errorf("keyfile: no GDH key for %q", id)
	}
	pp, err := s.Params()
	if err != nil {
		return nil, err
	}
	r, err := pp.Curve().Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("GDH key for %q: %w", id, err)
	}
	return &bls.PublicKey{Pairing: pp, R: r}, nil
}

// IBEUserKey decodes the user's IBE half.
func (u *User) IBEUserKey(pp *pairing.Params) (*core.UserKeyHalf, error) {
	if len(u.IBEHalf) == 0 {
		return nil, fmt.Errorf("keyfile: user %q has no IBE half", u.ID)
	}
	d, err := pp.Curve().Unmarshal(u.IBEHalf)
	if err != nil {
		return nil, fmt.Errorf("IBE half for %q: %w", u.ID, err)
	}
	return &core.UserKeyHalf{ID: u.ID, D: d}, nil
}

// GDHUserKey decodes the user's GDH half plus combined public key.
func (u *User) GDHUserKey(pp *pairing.Params) (*core.GDHUserKey, error) {
	if len(u.GDHHalf) == 0 || len(u.GDHPublic) == 0 {
		return nil, fmt.Errorf("keyfile: user %q has no GDH material", u.ID)
	}
	r, err := pp.Curve().Unmarshal(u.GDHPublic)
	if err != nil {
		return nil, fmt.Errorf("GDH public for %q: %w", u.ID, err)
	}
	return &core.GDHUserKey{
		ID:     u.ID,
		X:      new(big.Int).SetBytes(u.GDHHalf), //cryptolint:public (sanctioned keyfile serialization edge)
		Public: &bls.PublicKey{Pairing: pp, R: r},
	}, nil
}

// RSAUserKey decodes the user's mRSA half bound to the system modulus.
func (u *User) RSAUserKey(sys *System) (*mathx.ExpHalf, error) {
	if len(u.RSAHalf) == 0 {
		return nil, fmt.Errorf("keyfile: user %q has no RSA half", u.ID)
	}
	if len(sys.RSAModulus) == 0 {
		return nil, fmt.Errorf("keyfile: system has no RSA modulus")
	}
	return &mathx.ExpHalf{
		N:    new(big.Int).SetBytes(sys.RSAModulus), //cryptolint:public (sanctioned keyfile serialization edge; the modulus is public)
		Half: new(big.Int).SetBytes(u.RSAHalf),      //cryptolint:public (sanctioned keyfile serialization edge)
	}, nil
}

// BuildSEMs reconstructs the three SEM backends from a store, all sharing
// one registry — what cmd/semd runs at startup.
func (st *SEMStore) BuildSEMs(sys *System, reg *core.Registry) (*core.IBESEM, *core.GDHSEM, *core.ExpSEM, error) {
	pub, err := sys.PublicParams()
	if err != nil {
		return nil, nil, nil, err
	}
	pp := pub.Pairing

	ibe := core.NewIBESEM(pub, reg)
	for id, raw := range st.IBE {
		d, err := pp.Curve().Unmarshal(raw)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("SEM IBE half for %q: %w", id, err) //cryptolint:public (the identity label, not the key half)
		}
		ibe.Register(&core.SEMKeyHalf{ID: id, D: d})
	}
	gdh := core.NewGDHSEM(pp, reg)
	for id, raw := range st.GDH {
		gdh.Register(&core.GDHSEMKey{ID: id, X: new(big.Int).SetBytes(raw)}) //cryptolint:public (sanctioned keyfile serialization edge)
	}
	var rsa *core.ExpSEM
	if len(st.RSA) > 0 {
		if len(sys.RSAModulus) == 0 {
			return nil, nil, nil, fmt.Errorf("keyfile: SEM store has RSA halves but system has no modulus")
		}
		rsa = core.NewExpSEM(reg)
		n := new(big.Int).SetBytes(sys.RSAModulus) //cryptolint:public (sanctioned keyfile serialization edge; the modulus is public)
		for id, raw := range st.RSA {
			rsa.Register(id, &mathx.ExpHalf{N: new(big.Int).Set(n), Half: new(big.Int).SetBytes(raw)}) //cryptolint:public (sanctioned keyfile serialization edge)
		}
	}
	return ibe, gdh, rsa, nil
}
