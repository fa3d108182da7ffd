package keyfile

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pairing"
)

// Failure-injection tests: corrupt artifacts must be rejected at load/build
// time, never at first use.

func TestBuildSEMsRejectsCorruptStore(t *testing.T) {
	d := testDeployment(t)
	sys := d.System()

	// Corrupt IBE point.
	badIBE := &SEMStore{IBE: map[string][]byte{"x@x": {1, 2, 3}}}
	if _, _, _, err := badIBE.BuildSEMs(sys, core.NewRegistry()); err == nil {
		t.Error("corrupt IBE half accepted")
	}

	// RSA halves without a system modulus.
	noMod := &System{ParamSet: sys.ParamSet, ParamDigest: sys.ParamDigest, MsgLen: sys.MsgLen, PPub: sys.PPub}
	rsaOnly := &SEMStore{RSA: map[string][]byte{"x@x": {1}}}
	if _, _, _, err := rsaOnly.BuildSEMs(noMod, core.NewRegistry()); err == nil {
		t.Error("RSA store without modulus accepted")
	}

	// Unknown parameter set.
	badSys := &System{ParamSet: "nope", MsgLen: 32, PPub: sys.PPub}
	if _, _, _, err := (&SEMStore{}).BuildSEMs(badSys, core.NewRegistry()); err == nil {
		t.Error("unknown parameter set accepted")
	}

	// Corrupt system P_pub.
	badPPub := &System{ParamSet: sys.ParamSet, ParamDigest: sys.ParamDigest, MsgLen: sys.MsgLen, PPub: []byte{9, 9}}
	if _, _, _, err := (&SEMStore{}).BuildSEMs(badPPub, core.NewRegistry()); err == nil {
		t.Error("corrupt P_pub accepted")
	}
}

// TestStaleParamSetRefused: a deployment written while "paper" named the
// dense-order set carries a P_pub of that set and no parameter digest. Read
// under today's "paper" it must be refused by name, with the typed error,
// before any of its points is decoded — and so must a file whose digest is
// another set's.
func TestStaleParamSetRefused(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{ParamSet: "paper_dense", MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	old := d.System()
	dir := t.TempDir()
	// The artifact as pkgen wrote it before digests: no paramDigest key.
	legacy := filepath.Join(dir, "system.json")
	if err := Save(legacy, map[string]any{"paramSet": "paper", "msgLen": old.MsgLen, "ppub": old.PPub}, false); err != nil {
		t.Fatal(err)
	}
	var sys System
	if err := Load(legacy, &sys); err != nil {
		t.Fatal(err)
	}
	relabelled := &System{ParamSet: "paper", ParamDigest: old.ParamDigest, MsgLen: old.MsgLen, PPub: old.PPub}
	paper, err := pairing.Paper()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sys  *System
		got  string
	}{{"no digest", &sys, ""}, {"another set's digest", relabelled, old.ParamDigest}} {
		_, err := tc.sys.PublicParams()
		var pse *ParamSetError
		if !errors.As(err, &pse) {
			t.Fatalf("%s: PublicParams gave %v, want a *ParamSetError", tc.name, err)
		}
		if pse.Set != "paper" || pse.Got != tc.got || pse.Want != ParamDigest(paper) {
			t.Errorf("%s: %+v", tc.name, pse)
		}
		if !strings.Contains(err.Error(), `"paper"`) {
			t.Errorf("%s: error %q does not name the set", tc.name, err)
		}
		if _, _, _, err := (&SEMStore{}).BuildSEMs(tc.sys, core.NewRegistry()); !errors.As(err, &pse) {
			t.Errorf("%s: BuildSEMs gave %v, want a *ParamSetError", tc.name, err)
		}
	}

	td, err := NewThresholdDeployment(ThresholdDeploymentConfig{ParamSet: "toy", T: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := *td.System()
	if _, err := ts.Params(); err != nil {
		t.Fatal(err)
	}
	ts.ParamDigest = ""
	var pse *ParamSetError
	if _, err := ts.Params(); !errors.As(err, &pse) || pse.Set != "toy" {
		t.Errorf("threshold system without a digest: %v, want a *ParamSetError for \"toy\"", err)
	}
}

func TestUserAccessorErrors(t *testing.T) {
	d := testDeployment(t)
	pp, err := d.System().Params()
	if err != nil {
		t.Fatal(err)
	}
	empty := &User{ID: "x@x"}
	if _, err := empty.IBEUserKey(pp); err == nil {
		t.Error("missing IBE half accepted")
	}
	if _, err := empty.GDHUserKey(pp); err == nil {
		t.Error("missing GDH material accepted")
	}
	if _, err := empty.RSAUserKey(d.System()); err == nil {
		t.Error("missing RSA half accepted")
	}
	corrupt := &User{ID: "x@x", IBEHalf: []byte{1}, GDHHalf: []byte{2}, GDHPublic: []byte{3}}
	if _, err := corrupt.IBEUserKey(pp); err == nil {
		t.Error("corrupt IBE half accepted")
	}
	if _, err := corrupt.GDHUserKey(pp); err == nil {
		t.Error("corrupt GDH public accepted")
	}
}

func TestGDHPublicKeyCorrupt(t *testing.T) {
	d := testDeployment(t)
	sys := d.System()
	sysBad := &System{
		ParamSet:    sys.ParamSet,
		ParamDigest: sys.ParamDigest,
		MsgLen:      sys.MsgLen,
		PPub:        sys.PPub,
		GDHKeys:     map[string][]byte{"x@x": {1, 2}},
	}
	if _, err := sysBad.GDHPublicKey("x@x"); err == nil {
		t.Error("corrupt GDH key accepted")
	}
}
