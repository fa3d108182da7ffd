package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/pairing"
)

// TestRegisterIBEOverWire enrolls a fresh identity through the wire op and
// proves the installed half actually mediates: a full encrypt → token →
// decrypt round trip for the new identity.
func TestRegisterIBEOverWire(t *testing.T) {
	f := newFixture(t)
	const bob = "bob@example.com"

	// Unknown before registration.
	if _, err := f.client.IBEToken(bob, f.pp.Generator()); !errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("pre-registration token err = %v, want ErrUnknownIdentity", err)
	}

	bobUser, bobSEM, err := f.pkg.SplitExtract(rand.Reader, bob)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.RegisterIBE(bob, bobSEM.D); err != nil {
		t.Fatal(err)
	}

	msg := bytes.Repeat([]byte{0x5a}, msgLen)
	ct, err := f.pkg.Public().Encrypt(rand.Reader, bob, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecryptIBE(f.pkg.Public(), bobUser, ct, f.client.IBEToken)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %x, want %x", got, msg)
	}
}

// TestRegisterGDHOverWire enrolls a fresh GDH signer through the wire op
// and verifies a mediated signature made with the registered half.
func TestRegisterGDHOverWire(t *testing.T) {
	f := newFixture(t)
	const bob = "bob-gdh@example.com"
	ta := core.NewGDHAuthority(f.pp)
	bobUser, bobSEM, err := ta.Keygen(rand.Reader, bob)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.RegisterGDH(bob, bobSEM.X); err != nil {
		t.Fatal(err)
	}
	msg := []byte("registered over the wire")
	sig, err := core.SignGDH(bobUser, msg, f.client.GDHHalfSign)
	if err != nil {
		t.Fatal(err)
	}
	if err := bobUser.Public.Verify(msg, sig); err != nil {
		t.Fatalf("signature with wire-registered half invalid: %v", err)
	}
}

// TestRegisterBatchAndValidation covers the bulk-enrollment path plus the
// server-side operand validation (malformed point, out-of-range scalar,
// missing identity).
func TestRegisterBatchAndValidation(t *testing.T) {
	f := newFixture(t)
	ids := make([]string, 5)
	ds := make([]*curve.Point, 5)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch%d@example.com", i)
		_, h, err := f.pkg.SplitExtract(rand.Reader, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = h.D
	}
	errs, err := f.client.RegisterIBEBatch(ids, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("batch register of %s: %v", ids[i], e)
		}
	}
	for _, id := range ids {
		if _, err := f.client.IBEToken(id, f.pp.Generator()); err != nil {
			t.Fatalf("token for batch-registered %s: %v", id, err)
		}
	}

	// Malformed point: remote bad-request, no typed sentinel.
	if _, err := f.client.one(opRegisterIBE, "x@y", []byte("junk")); !errors.Is(err, ErrRemote) {
		t.Fatalf("malformed point err = %v, want ErrRemote", err)
	}
	// Scalar outside [1, q-1].
	if err := f.client.RegisterGDH("x@y", f.pp.Q()); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range scalar err = %v, want ErrRemote", err)
	}
	if err := f.client.RegisterGDH("x@y", big.NewInt(0)); !errors.Is(err, ErrRemote) {
		t.Fatalf("zero scalar err = %v, want ErrRemote", err)
	}
	// Missing identity.
	if err := f.client.RegisterIBE("", f.pp.Generator()); !errors.Is(err, ErrRemote) {
		t.Fatalf("empty-id register err = %v, want ErrRemote", err)
	}
}

// TestRegisterDisabledByDefault proves the enrollment plane stays off
// unless AllowRegister is set: the op draws CodeUnsupported.
func TestRegisterDisabledByDefault(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveTCP(t, Config{
		Registry: reg,
		IBE:      core.NewIBESEM(pkg.Public(), reg),
		Pairing:  pp,
	})
	err = dialTCP(t, addr, pp).RegisterIBE("x@y", pp.Generator())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("register on locked-down server err = %v, want ErrRemote", err)
	}
	if errors.Is(err, core.ErrRevoked) || errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("unsupported must carry no typed sentinel: %v", err)
	}
}
