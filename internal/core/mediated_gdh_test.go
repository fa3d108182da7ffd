package core

import (
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/bls"
	"repro/internal/pairing"
)

func gdhFixture(t *testing.T) (*GDHAuthority, *GDHSEM) {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	return NewGDHAuthority(pp), NewGDHSEM(pp, NewRegistry())
}

func gdhEnroll(t *testing.T, ta *GDHAuthority, sem *GDHSEM, id string) *GDHUserKey {
	t.Helper()
	user, semHalf, err := ta.Keygen(rand.Reader, id)
	if err != nil {
		t.Fatal(err)
	}
	sem.Register(semHalf)
	return user
}

func TestMediatedGDHSignVerify(t *testing.T) {
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, "signer@example.com")
	msg := []byte("the contract text")
	sig, err := SignGDH(key, msg, sem.HalfSign)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.Verify(msg, sig); err != nil {
		t.Fatalf("mediated signature invalid: %v", err)
	}
	// Verifier needs only (P, R); signature rejects other messages.
	if err := key.Public.Verify([]byte("other"), sig); err == nil {
		t.Fatal("signature verified for a different message")
	}
}

func TestMediatedMatchesUnsplitSignature(t *testing.T) {
	// Combined halves must equal the deterministic signature of the full
	// scalar.
	ta, sem := gdhFixture(t)
	user, semHalf, _ := ta.Keygen(rand.Reader, "signer@example.com")
	sem.Register(semHalf)
	msg := []byte("determinism")
	sig, err := SignGDH(user, msg, sem.HalfSign)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RecombineGDHKey(user, semHalf)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := full.Sign(msg)
	if !sig.Equal(direct) {
		t.Fatal("mediated and unsplit signatures differ")
	}
}

func TestGDHRevocationStopsSigning(t *testing.T) {
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, "signer@example.com")
	msg := []byte("m")
	if _, err := SignGDH(key, msg, sem.HalfSign); err != nil {
		t.Fatalf("pre-revocation signing failed: %v", err)
	}
	sem.Registry().Revoke("signer@example.com", "key compromise")
	if _, err := SignGDH(key, msg, sem.HalfSign); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked identity still signs: %v", err)
	}
	sem.Registry().Unrevoke("signer@example.com")
	if _, err := SignGDH(key, msg, sem.HalfSign); err != nil {
		t.Fatalf("post-unrevoke signing failed: %v", err)
	}
}

func TestGDHUserDetectsBadSEMHalf(t *testing.T) {
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, "signer@example.com")
	msg := []byte("m")
	h, _ := bls.HashMessage(key.Public.Pairing, msg)
	good, err := sem.HalfSign("signer@example.com", h)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the SEM's half: the user-side verification (protocol step 3)
	// must catch it rather than emit a bad signature.
	if _, err := UserSign(key, h, good.Double()); err == nil {
		t.Fatal("corrupted SEM half produced an accepted signature")
	}
}

func TestGDHHalfSignValidatesInput(t *testing.T) {
	ta, sem := gdhFixture(t)
	gdhEnroll(t, ta, sem, "signer@example.com")
	if _, err := sem.HalfSign("signer@example.com", nil); err == nil {
		t.Error("nil hash point accepted")
	}
	pp, _ := pairing.Toy()
	if _, err := sem.HalfSign("signer@example.com", pp.Curve().Infinity()); err == nil {
		t.Error("infinity hash point accepted")
	}
}

func TestGDHUserHalfAloneCannotSign(t *testing.T) {
	// Without the SEM half, the user's half-signature does not verify.
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, "signer@example.com")
	msg := []byte("m")
	h, _ := bls.HashMessage(key.Public.Pairing, msg)
	userHalf := h.ScalarMul(key.X)
	if err := key.Public.Verify(msg, userHalf); err == nil {
		t.Fatal("user half alone verified as a full signature")
	}
}

func TestGDHSEMHalfIsShort(t *testing.T) {
	// The SEM→user payload is one compressed G1 point — the paper's
	// "160 bits" vs 1024 for mRSA (measured exactly in the T2 bench).
	ta, sem := gdhFixture(t)
	key := gdhEnroll(t, ta, sem, "signer@example.com")
	h, _ := bls.HashMessage(key.Public.Pairing, []byte("m"))
	half, _ := sem.HalfSign("signer@example.com", h)
	want := 1 + key.Public.Pairing.Curve().CoordinateSize()
	if got := len(half.Marshal()); got != want {
		t.Fatalf("SEM half is %d bytes, want %d", got, want)
	}
}

func TestRecombineGDHKeyMismatch(t *testing.T) {
	ta, _ := gdhFixture(t)
	ua, _, _ := ta.Keygen(rand.Reader, "a@x")
	_, sb, _ := ta.Keygen(rand.Reader, "b@x")
	if _, err := RecombineGDHKey(ua, sb); err == nil {
		t.Fatal("cross-identity recombination accepted")
	}
}

func TestRegistrySemantics(t *testing.T) {
	reg := NewRegistry()
	if reg.IsRevoked("a") {
		t.Fatal("fresh registry revokes")
	}
	reg.Revoke("a", "reason-1")
	if !reg.IsRevoked("a") {
		t.Fatal("revocation not recorded")
	}
	if err := reg.Check("a"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Check: %v", err)
	}
	if err := reg.Check("b"); err != nil {
		t.Fatalf("unrevoked identity fails Check: %v", err)
	}
	entries := reg.Entries()
	if len(entries) != 1 || entries[0].ID != "a" || entries[0].Reason != "reason-1" {
		t.Fatalf("entries = %+v", entries)
	}
	if reg.Unrevoke("nope") {
		t.Fatal("unrevoke of unknown identity reported true")
	}
	if !reg.Unrevoke("a") {
		t.Fatal("unrevoke failed")
	}
	if reg.IsRevoked("a") {
		t.Fatal("identity still revoked after unrevoke")
	}
}
