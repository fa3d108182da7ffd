package sem

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestClientCloseIdempotent covers the close contract of a dialed client:
// Close is idempotent, and every op after Close reports ErrClientClosed
// instead of a raw net error.
func TestClientCloseIdempotent(t *testing.T) {
	f := newFixture(t)
	c := f.client
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.IBEToken(testID, f.pp.Generator()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("IBEToken after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := c.many(opIBEToken, []string{testID}, [][]byte{f.pp.Generator().Marshal()}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("many after Close = %v, want ErrClientClosed", err)
	}
}

// TestRemoteErrorClassification checks the failover predicate the sharded
// router keys on: every server-answered error matches ErrRemote (failover
// would only repeat it elsewhere), while the typed sentinels keep matching
// too, and transport-level errors do not match ErrRemote.
func TestRemoteErrorClassification(t *testing.T) {
	f := newFixture(t)
	c := f.client

	if err := c.Revoke(testID, "test"); err != nil {
		t.Fatal(err)
	}
	_, err := c.IBEToken(testID, f.pp.Generator())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("revoked error %v does not match ErrRemote", err)
	}
	if !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("revoked error %v lost its typed sentinel", err)
	}
	if err := c.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}

	_, err = c.IBEToken("nobody@example.com", f.pp.Generator())
	if !errors.Is(err, ErrRemote) || !errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("unknown-identity error %v must match both ErrRemote and ErrUnknownIdentity", err)
	}

	// A malformed payload draws a bad-request refusal: remote, but no typed
	// sentinel.
	_, err = c.one(opIBEToken, testID, []byte("not a point"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("bad-request error %v does not match ErrRemote", err)
	}
	if errors.Is(err, core.ErrRevoked) || errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("bad-request error %v must not match a typed sentinel", err)
	}

	// Transport failure: server torn down under the client. Must NOT match
	// ErrRemote (this is exactly the case the router fails over on) and, as
	// the close was not ours, must not be ErrClientClosed either.
	_ = f.server.Close()
	if err := c.Ping(); err == nil || errors.Is(err, ErrRemote) || errors.Is(err, ErrClientClosed) {
		t.Fatalf("transport error %v misclassified", err)
	}
}
