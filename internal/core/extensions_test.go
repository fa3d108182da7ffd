package core

// Tests for the two extension features built from the paper's conclusion
// (§6 of DESIGN.md): mediated Goldwasser-Micali and mediated signcryption.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/gm"
	"repro/internal/mathx"
	"repro/internal/pairing"
	"repro/internal/rabin"
)

func gmFixture(t *testing.T) (*gm.PrivateKey, *mathx.ExpHalf, *ExpSEM) {
	t.Helper()
	sk, err := gm.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	user, semHalf, err := gm.Split(rand.Reader, sk)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewExpSEM(NewRegistry())
	sem.Register("gm-user@example.com", semHalf)
	return sk, user, sem
}

func TestMediatedGMRoundTrip(t *testing.T) {
	sk, user, sem := gmFixture(t)
	msg := []byte("conjecture, executed")
	cs, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptGM(sk.Public, "gm-user@example.com", user, cs, sem.HalfDecryptGM)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestMediatedGMRevocation(t *testing.T) {
	sk, user, sem := gmFixture(t)
	cs, _ := sk.Public.Encrypt(rand.Reader, []byte("x"))
	sem.Registry().Revoke("gm-user@example.com", "test")
	if _, err := DecryptGM(sk.Public, "gm-user@example.com", user, cs, sem.HalfDecryptGM); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked GM identity decrypted: %v", err)
	}
	sem.Registry().Unrevoke("gm-user@example.com")
	if _, err := DecryptGM(sk.Public, "gm-user@example.com", user, cs, sem.HalfDecryptGM); err != nil {
		t.Fatalf("unrevoked GM identity failed: %v", err)
	}
}

func TestMediatedGMValidation(t *testing.T) {
	sk, user, sem := gmFixture(t)
	// Out-of-range element.
	if _, err := sem.HalfDecryptGM("gm-user@example.com", []*big.Int{sk.Public.N}); err == nil {
		t.Error("out-of-range element accepted")
	}
	// Non-multiple-of-8 ciphertext.
	cs, _ := sk.Public.Encrypt(rand.Reader, []byte("ab"))
	if _, err := DecryptGM(sk.Public, "gm-user@example.com", user, cs[:3], sem.HalfDecryptGM); err == nil {
		t.Error("ragged ciphertext accepted")
	}
}

// --- mediated signcryption ---

type signcryptFixture struct {
	sc        *Signcrypter
	pkg       *MediatedPKG
	reg       *Registry
	sender    *GDHUserKey
	recipient *UserKeyHalf
}

const (
	scSender    = "alice@example.com"
	scRecipient = "bob@example.com"
	scMsgLen    = 96 // leave room for the embedded signature at toy sizes
)

func newSigncryptFixture(t *testing.T) *signcryptFixture {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	pkg, err := NewMediatedPKG(rand.Reader, pp, scMsgLen)
	if err != nil {
		t.Fatal(err)
	}
	ibeSEM := NewIBESEM(pkg.Public(), reg)
	bobUser, bobSEMHalf, err := pkg.SplitExtract(rand.Reader, scRecipient)
	if err != nil {
		t.Fatal(err)
	}
	ibeSEM.Register(bobSEMHalf)

	ta := NewGDHAuthority(pp)
	gdhSEM := NewGDHSEM(pp, reg)
	aliceKey, aliceSEMHalf, err := ta.Keygen(rand.Reader, scSender)
	if err != nil {
		t.Fatal(err)
	}
	gdhSEM.Register(aliceSEMHalf)

	return &signcryptFixture{
		sc:        NewSigncrypter(pkg.Public(), ibeSEM.TokenFor, gdhSEM.HalfSign),
		pkg:       pkg,
		reg:       reg,
		sender:    aliceKey,
		recipient: bobUser,
	}
}

func TestSigncryptRoundTrip(t *testing.T) {
	f := newSigncryptFixture(t)
	msg := []byte("both gates must open")
	ct, err := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.sc.Designcrypt(f.recipient, scSender, f.sender.Public, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("designcrypted %q, want %q", got, msg)
	}
}

func TestSigncryptSenderRevocation(t *testing.T) {
	f := newSigncryptFixture(t)
	f.reg.Revoke(scSender, "sender gone")
	if _, err := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, []byte("m")); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked sender signcrypted: %v", err)
	}
}

func TestSigncryptRecipientRevocation(t *testing.T) {
	f := newSigncryptFixture(t)
	msg := []byte("sealed before revocation")
	ct, err := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, msg)
	if err != nil {
		t.Fatal(err)
	}
	f.reg.Revoke(scRecipient, "recipient gone")
	if _, err := f.sc.Designcrypt(f.recipient, scSender, f.sender.Public, ct); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked recipient designcrypted: %v", err)
	}
	// Crucially, the SENDER still works — revocations are independent.
	f.reg.Unrevoke(scRecipient)
	if _, err := f.sc.Designcrypt(f.recipient, scSender, f.sender.Public, ct); err != nil {
		t.Fatalf("post-unrevoke designcryption failed: %v", err)
	}
}

func TestSigncryptBindsSender(t *testing.T) {
	f := newSigncryptFixture(t)
	ct, _ := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, []byte("m"))
	// Verify against the WRONG sender identity: must fail even with the
	// right key (identity is in the signed payload).
	if _, err := f.sc.Designcrypt(f.recipient, "imposter@example.com", f.sender.Public, ct); !errors.Is(err, ErrDesigncrypt) {
		t.Fatalf("wrong sender identity accepted: %v", err)
	}
	// And against the wrong key.
	ta := NewGDHAuthority(f.pkg.Public().Pairing)
	other, _, _ := ta.Keygen(rand.Reader, scSender)
	if _, err := f.sc.Designcrypt(f.recipient, scSender, other.Public, ct); !errors.Is(err, ErrDesigncrypt) {
		t.Fatalf("wrong sender key accepted: %v", err)
	}
}

func TestSigncryptRejectsOversizedMessage(t *testing.T) {
	f := newSigncryptFixture(t)
	long := make([]byte, f.sc.MaxMessageLen()+1)
	if _, err := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, long); !errors.Is(err, ErrSigncryptTooLong) {
		t.Fatalf("oversized message accepted: %v", err)
	}
	max := make([]byte, f.sc.MaxMessageLen())
	if _, err := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, max); err != nil {
		t.Fatalf("max-size message rejected: %v", err)
	}
}

func TestSigncryptTamperedEnvelope(t *testing.T) {
	f := newSigncryptFixture(t)
	ct, _ := f.sc.Signcrypt(rand.Reader, f.sender, scRecipient, []byte("m"))
	ct.W[0] ^= 1
	// The FullIdent validity check fires before the signature check.
	if _, err := f.sc.Designcrypt(f.recipient, scSender, f.sender.Public, ct); err == nil {
		t.Fatal("tampered envelope accepted")
	}
}

// --- mediated Rabin (SAEP encryption + modified-Rabin signature) ---

func rabinFixture(t *testing.T) (*rabin.PrivateKey, *mathx.ExpHalf, *ExpSEM) {
	t.Helper()
	sk, err := rabin.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	user, semHalf, err := rabin.Split(rand.Reader, sk)
	if err != nil {
		t.Fatal(err)
	}
	sem := NewExpSEM(NewRegistry())
	sem.Register("rabin-user@example.com", semHalf)
	return sk, user, sem
}

func TestMediatedRabinDecrypt(t *testing.T) {
	sk, user, sem := rabinFixture(t)
	msg := []byte("saep-ok")
	ct, err := sk.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptRabin(sk.Public, "rabin-user@example.com", user, ct, len(msg), sem.HalfOf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestMediatedRabinSign(t *testing.T) {
	sk, user, sem := rabinFixture(t)
	msg := []byte("mediated modified-rabin signature")
	sig, err := SignRabin(sk.Public, "rabin-user@example.com", user, msg, sem.HalfOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Public.Verify(msg, sig); err != nil {
		t.Fatalf("mediated Rabin signature invalid: %v", err)
	}
}

func TestMediatedRabinRevocation(t *testing.T) {
	sk, user, sem := rabinFixture(t)
	msg := []byte("gone")
	ct, _ := sk.Public.Encrypt(rand.Reader, msg)
	sem.Registry().Revoke("rabin-user@example.com", "test")
	if _, err := DecryptRabin(sk.Public, "rabin-user@example.com", user, ct, len(msg), sem.HalfOf); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked Rabin identity decrypted: %v", err)
	}
	if _, err := SignRabin(sk.Public, "rabin-user@example.com", user, msg, sem.HalfOf); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked Rabin identity signed: %v", err)
	}
}
