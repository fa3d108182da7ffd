package keyfile

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mrsa"
	"repro/internal/pairing"
)

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(DeploymentConfig{ParamSet: "toy", MsgLen: 32, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice@example.com", "bob@example.com"} {
		if err := d.Enroll(id); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDeploymentWriteAndReload(t *testing.T) {
	d := testDeployment(t)
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}

	var sys System
	if err := Load(filepath.Join(dir, "system.json"), &sys); err != nil {
		t.Fatal(err)
	}
	var store SEMStore
	if err := Load(filepath.Join(dir, "sem-store.json"), &store); err != nil {
		t.Fatal(err)
	}
	var alice User
	if err := Load(filepath.Join(dir, "users", UserFileName("alice@example.com")), &alice); err != nil {
		t.Fatal(err)
	}

	// Rebuild everything and run a full IBE round trip.
	reg := core.NewRegistry()
	ibeSEM, gdhSEM, rsaSEM, err := store.BuildSEMs(&sys, reg)
	if err != nil {
		t.Fatal(err)
	}
	if gdhSEM == nil || rsaSEM == nil {
		t.Fatal("SEM backends missing")
	}
	pub, err := sys.PublicParams()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sys.Params()
	if err != nil {
		t.Fatal(err)
	}
	userKey, err := alice.IBEUserKey(pp)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAA}, sys.MsgLen)
	ct, err := pub.Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decrypt(ibeSEM, userKey, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("reloaded deployment failed to decrypt")
	}

	// GDH round trip from reloaded material.
	gdhKey, err := alice.GDHUserKey(pp)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := core.Sign(gdhSEM, gdhKey, []byte("reloaded"))
	if err != nil {
		t.Fatal(err)
	}
	vk, err := sys.GDHPublicKey("alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if err := vk.Verify([]byte("reloaded"), sig); err != nil {
		t.Fatal(err)
	}

	// RSA round trip from reloaded material.
	rsaPub, err := sys.RSAPublicKey("alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	rsaUser, err := alice.RSAUserKey(&sys)
	if err != nil {
		t.Fatal(err)
	}
	rct, err := rsaPub.EncryptOAEP(rand.Reader, []byte("rsa reload"))
	if err != nil {
		t.Fatal(err)
	}
	ci := new(big.Int).SetBytes(rct)
	semHalf, err := rsaSEM.HalfOp("alice@example.com", core.RSACiphertext(rct))
	if err != nil {
		t.Fatal(err)
	}
	combined := mrsa.Combine(rsaPub.N, rsaUser.Op(ci), semHalf)
	plain, err := mrsa.FinishDecrypt(rsaPub, combined)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "rsa reload" {
		t.Fatal("RSA reload round trip failed")
	}
}

func TestEnrollDuplicate(t *testing.T) {
	d := testDeployment(t)
	if err := d.Enroll("alice@example.com"); err == nil {
		t.Fatal("duplicate enrollment accepted")
	}
}

func TestUsersList(t *testing.T) {
	d := testDeployment(t)
	if got := len(d.Users()); got != 2 {
		t.Fatalf("users = %d, want 2", got)
	}
}

func TestUserFileName(t *testing.T) {
	got := UserFileName("a/b\\c:d@e")
	if got != "a_b_c_d_at_e.json" {
		t.Fatalf("UserFileName = %q", got)
	}
}

func TestLoadErrors(t *testing.T) {
	var sys System
	if err := Load("/nonexistent/system.json", &sys); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := Save(bad, map[string]int{"x": 1}, false); err != nil {
		t.Fatal(err)
	}
	var user User
	if err := Load(bad, &user); err != nil {
		// JSON of wrong shape unmarshals without error into a struct with
		// no matching fields; corrupt the file to force a parse error.
		t.Fatalf("unexpected: %v", err)
	}
}

func TestDeploymentWithoutRSA(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{ParamSet: "toy", MsgLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll("x@x"); err != nil {
		t.Fatal(err)
	}
	if len(d.System().RSAModulus) != 0 {
		t.Fatal("RSA modulus present without baseline")
	}
	var u User
	*(&u) = *d.users["x@x"]
	if _, err := u.RSAUserKey(d.System()); err == nil {
		t.Fatal("RSA key decoded without modulus")
	}
	var sys System
	*(&sys) = *d.System()
	if _, err := sys.RSAPublicKey("x@x"); err == nil {
		t.Fatal("RSA public key without modulus")
	}
}

func TestSystemAccessorErrors(t *testing.T) {
	sys := &System{ParamSet: "nope"}
	if _, err := sys.Params(); err == nil {
		t.Fatal("unknown param set accepted")
	}
	toy, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	sys2 := &System{ParamSet: "toy", ParamDigest: ParamDigest(toy), MsgLen: 32, PPub: []byte{1, 2}}
	if _, err := sys2.PublicParams(); err == nil {
		t.Fatal("garbage PPub accepted")
	}
	sys3 := &System{ParamSet: "toy", GDHKeys: map[string][]byte{}}
	if _, err := sys3.GDHPublicKey("missing"); err == nil {
		t.Fatal("missing GDH key accepted")
	}
}

func TestThresholdDeploymentRoundTrip(t *testing.T) {
	d, err := NewThresholdDeployment(ThresholdDeploymentConfig{
		ParamSet: "toy", MsgLen: 32, T: 2, N: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll("vault@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll("vault@example.com"); err == nil {
		t.Fatal("duplicate threshold enrollment accepted")
	}
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	var sys ThresholdSystem
	if err := Load(filepath.Join(dir, "threshold.json"), &sys); err != nil {
		t.Fatal(err)
	}
	params, err := sys.Params()
	if err != nil {
		t.Fatal(err)
	}
	if params.T != 2 || params.N != 3 {
		t.Fatalf("params (t,n) = (%d,%d)", params.T, params.N)
	}
	// Reload player 2 and verify its shares.
	var pf PlayerFile
	if err := Load(filepath.Join(dir, "players", "player-2.json"), &pf); err != nil {
		t.Fatal(err)
	}
	shares, err := pf.KeyShares(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 1 {
		t.Fatalf("player 2 holds %d shares", len(shares))
	}
	if err := params.VerifyKeyShare(shares[0]); err != nil {
		t.Fatalf("reloaded share fails verification: %v", err)
	}
	// Player index bounds.
	if _, err := d.Player(0); err == nil {
		t.Error("player 0 accepted")
	}
	if _, err := d.Player(4); err == nil {
		t.Error("player n+1 accepted")
	}
	// Corrupt system material is rejected.
	bad := sys
	bad.PPub = []byte{1}
	if _, err := bad.Params(); err == nil {
		t.Error("corrupt threshold P_pub accepted")
	}
	bad2 := sys
	bad2.VerificationKeys = [][]byte{{1}, {2}, {3}}
	if _, err := bad2.Params(); err == nil {
		t.Error("corrupt verification keys accepted")
	}
}
