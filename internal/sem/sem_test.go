package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/mathx"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/wire"
)

const msgLen = 32

// fixture spins up a complete SEM daemon (all three backends) on a loopback
// listener and enrolls one identity in each scheme.
type fixture struct {
	t       *testing.T
	pp      *pairing.Params
	addr    string
	server  *Server
	client  *Pool
	reg     *core.Registry
	pkg     *core.MediatedPKG
	ibeUser *core.UserKeyHalf
	gdhUser *core.GDHUserKey
	rsaPub  *mrsa.PublicKey
	rsaUser *mathx.ExpHalf
	gmKey   *gm.PrivateKey
	gmUser  *mathx.ExpHalf
}

const testID = "alice@example.com"

func newFixture(t *testing.T) *fixture {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()

	// IBE enrollment.
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	ibeSEM := core.NewIBESEM(pkg.Public(), reg)
	ibeUser, ibeSEMHalf, err := pkg.SplitExtract(rand.Reader, testID)
	if err != nil {
		t.Fatal(err)
	}
	ibeSEM.Register(ibeSEMHalf)

	// GDH enrollment.
	ta := core.NewGDHAuthority(pp)
	gdhSEM := core.NewGDHSEM(pp, reg)
	gdhUser, gdhSEMHalf, err := ta.Keygen(rand.Reader, testID)
	if err != nil {
		t.Fatal(err)
	}
	gdhSEM.Register(gdhSEMHalf)

	// RSA enrollment (IB-mRSA over the fixed 512-bit test modulus).
	ibpkg, err := mrsa.FixedTestPKG()
	if err != nil {
		t.Fatal(err)
	}
	rsaSEM := core.NewExpSEM(reg)
	rsaUser, rsaSEMHalf, err := ibpkg.IssueHalves(rand.Reader, testID)
	if err != nil {
		t.Fatal(err)
	}
	rsaSEM.Register(testID, rsaSEMHalf)

	// GM enrollment (extension scheme).
	gmKey, err := gm.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	gmSEM := core.NewExpSEM(reg)
	gmUser, gmSEMHalf, err := gm.Split(rand.Reader, gmKey)
	if err != nil {
		t.Fatal(err)
	}
	gmSEM.Register(testID, gmSEMHalf)

	srv, err := NewServer(Config{
		Registry:      reg,
		IBE:           ibeSEM,
		GDH:           gdhSEM,
		RSA:           rsaSEM,
		GM:            gmSEM,
		Pairing:       pp,
		AllowRegister: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	client, err := Dial(ln.Addr().String(), pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
		wg.Wait()
	})
	return &fixture{
		t:       t,
		pp:      pp,
		addr:    ln.Addr().String(),
		server:  srv,
		client:  client,
		reg:     reg,
		pkg:     pkg,
		ibeUser: ibeUser,
		gdhUser: gdhUser,
		rsaPub:  ibpkg.IdentityPublicKey(testID),
		rsaUser: rsaUser,
		gmKey:   gmKey,
		gmUser:  gmUser,
	}
}

func TestPing(t *testing.T) {
	f := newFixture(t)
	if err := f.client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkedIBEDecryption(t *testing.T) {
	f := newFixture(t)
	msg := bytes.Repeat([]byte{0x42}, msgLen)
	ct, err := f.pkg.Public().Encrypt(rand.Reader, testID, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.client.DecryptIBE(f.pkg.Public(), f.ibeUser, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %x, want %x", got, msg)
	}
}

func TestNetworkedGDHSigning(t *testing.T) {
	f := newFixture(t)
	msg := []byte("sign me over the network")
	sig, err := f.client.SignGDH(f.gdhUser, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.gdhUser.Public.Verify(msg, sig); err != nil {
		t.Fatalf("networked mediated signature invalid: %v", err)
	}
}

func TestNetworkedRSADecryption(t *testing.T) {
	f := newFixture(t)
	msg := []byte("ib-mrsa online")
	ct, err := f.rsaPub.EncryptOAEP(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.client.DecryptRSA(f.rsaPub, testID, f.rsaUser, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
}

func TestNetworkedRSASigning(t *testing.T) {
	f := newFixture(t)
	msg := []byte("mrsa signature online")
	sig, err := f.client.SignRSA(f.rsaPub, f.rsaUser, testID, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rsaPub.Verify(msg, sig); err != nil {
		t.Fatalf("networked mRSA signature invalid: %v", err)
	}
}

func TestRevocationOverTheWire(t *testing.T) {
	f := newFixture(t)
	msg := bytes.Repeat([]byte{1}, msgLen)
	ct, _ := f.pkg.Public().Encrypt(rand.Reader, testID, msg)

	if err := f.client.Revoke(testID, "terminated"); err != nil {
		t.Fatal(err)
	}
	revoked, err := f.client.Status(testID)
	if err != nil || !revoked {
		t.Fatalf("status = %v, %v; want revoked", revoked, err)
	}
	// Revocation kills all three capabilities at once.
	if _, err := f.client.DecryptIBE(f.pkg.Public(), f.ibeUser, ct); !errors.Is(err, core.ErrRevoked) {
		t.Errorf("IBE after revoke: %v", err)
	}
	if _, err := f.client.SignGDH(f.gdhUser, msg); !errors.Is(err, core.ErrRevoked) {
		t.Errorf("GDH after revoke: %v", err)
	}
	if _, err := f.client.RSAHalfSign(f.rsaPub, testID, msg); !errors.Is(err, core.ErrRevoked) {
		t.Errorf("RSA after revoke: %v", err)
	}
	// Unrevoke restores everything.
	if err := f.client.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.DecryptIBE(f.pkg.Public(), f.ibeUser, ct); err != nil {
		t.Errorf("IBE after unrevoke: %v", err)
	}
}

func TestUnknownIdentityOverTheWire(t *testing.T) {
	f := newFixture(t)
	h, _ := f.pp.Curve().HashToPoint("x", []byte("m"))
	if _, err := f.client.GDHHalfSign("nobody@example.com", h); !errors.Is(err, core.ErrUnknownIdentity) {
		t.Fatalf("unknown identity: %v", err)
	}
}

func TestMalformedPayloadRejected(t *testing.T) {
	f := newFixture(t)
	resp, err := f.client.one(opIBEToken, testID, []byte{1, 2, 3})
	if err == nil {
		t.Fatalf("malformed point accepted: %x", resp)
	}
}

func TestUnknownOpRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.client.one(200, "", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown op byte: %v, want a remote refusal", err)
	}
	// The refusal is per frame, not per connection: the client keeps working.
	if err := f.client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestWireStatsAccumulate(t *testing.T) {
	f := newFixture(t)
	msg := []byte("stats")
	if _, err := f.client.SignGDH(f.gdhUser, msg); err != nil {
		t.Fatal(err)
	}
	stats := f.client.Stats()
	st, ok := stats[OpGDHSign]
	if !ok || st.Calls != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The SEM→user payload for GDH is one compressed point.
	want := 1 + f.pp.Curve().CoordinateSize()
	if st.PayloadReceived != want {
		t.Fatalf("GDH payload %d bytes, want %d", st.PayloadReceived, want)
	}
}

func TestConcurrentClients(t *testing.T) {
	f := newFixture(t)
	msg := bytes.Repeat([]byte{9}, msgLen)
	const workers = 6
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			client, err := Dial(f.server.Addr().String(), f.pp, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			ct, err := f.pkg.Public().Encrypt(rand.Reader, testID, msg)
			if err != nil {
				errs <- err
				return
			}
			got, err := client.DecryptIBE(f.pkg.Public(), f.ibeUser, ct)
			if err == nil && !bytes.Equal(got, msg) {
				err = errors.New("wrong plaintext")
			}
			errs <- err
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseIsIdempotentAndDrains(t *testing.T) {
	f := newFixture(t)
	if err := f.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.server.Close(); err != nil {
		t.Fatal(err)
	}
	// Client operations now fail cleanly.
	if err := f.client.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("missing registry accepted")
	}
	reg := core.NewRegistry()
	pp, _ := pairing.Toy()
	ibe := core.NewIBESEM(nil, reg)
	if _, err := NewServer(Config{Registry: reg, IBE: ibe}); err == nil {
		t.Error("IBE backend without pairing params accepted")
	}
	if _, err := NewServer(Config{Registry: reg, IBE: ibe, Pairing: pp}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestUnsupportedBackend(t *testing.T) {
	// A server with only the registry configured refuses crypto ops.
	reg := core.NewRegistry()
	srv, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client, err := Dial(ln.Addr().String(), nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ibpkg, err := mrsa.FixedTestPKG()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RSAHalfSign(ibpkg.IdentityPublicKey("x"), "x", []byte("m")); err == nil {
		t.Fatal("unsupported backend served a request")
	}
}

func TestFrameLimit(t *testing.T) {
	f := newFixture(t)
	huge := make([]byte, DefaultMaxFrame+1)
	if _, err := f.client.RSAHalfSign(f.rsaPub, testID, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
}

func TestTruncatedFrameHandled(t *testing.T) {
	// A negotiated connection that dies mid-frame must not wedge the server.
	f := newFixture(t)
	conn, _, _ := rawConn(t, f.addr, wire.V2Version)
	_, _ = conn.Write([]byte{0, 0, 0, 50, 'x'}) // announces 50 bytes, sends 1
	_ = conn.Close()
	// Server must still serve others.
	if err := f.client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkedGMDecryption(t *testing.T) {
	f := newFixture(t)
	msg := []byte("gm over tcp")
	cs, err := f.gmKey.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.client.DecryptGM(f.gmKey.Public, testID, f.gmUser, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decrypted %q, want %q", got, msg)
	}
	// Revocation gates GM too (shared registry).
	if err := f.client.Revoke(testID, "gm test"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.DecryptGM(f.gmKey.Public, testID, f.gmUser, cs); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("revoked GM identity decrypted over the wire: %v", err)
	}
}

func TestGMPackUnpackRoundTrip(t *testing.T) {
	f := newFixture(t)
	cs, _ := f.gmKey.Public.Encrypt(rand.Reader, []byte{0xA5})
	packed, err := wire.PackInts(cs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.UnpackInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(cs) {
		t.Fatalf("unpacked %d elements, want %d", len(back), len(cs))
	}
	for i := range cs {
		if cs[i].Cmp(back[i]) != 0 {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// Truncations are rejected.
	if _, err := wire.UnpackInts(packed[:1]); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated header accepted: %v", err)
	}
	if _, err := wire.UnpackInts(packed[:len(packed)-1]); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated body accepted: %v", err)
	}
}

func TestListRevokedOverTheWire(t *testing.T) {
	f := newFixture(t)
	entries, err := f.client.ListRevoked()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh SEM lists %d revocations", len(entries))
	}
	if err := f.client.Revoke("a@x", "one"); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Revoke("b@x", "two"); err != nil {
		t.Fatal(err)
	}
	entries, err = f.client.ListRevoked()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("listed %d revocations, want 2", len(entries))
	}
	reasons := map[string]string{}
	for _, e := range entries {
		reasons[e.ID] = e.Reason
	}
	if reasons["a@x"] != "one" || reasons["b@x"] != "two" {
		t.Fatalf("entries = %+v", entries)
	}
}
