package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// ibeFixture spins up a SEM daemon with only the IBE backend — the token
// hot path the worker pool and the precomputation cache exist for — and
// keeps a handle on the backend so tests can inspect cache state.
type ibeOnlyFixture struct {
	pp     *pairing.Params
	reg    *core.Registry
	pkg    *core.MediatedPKG
	ibe    *core.IBESEM
	server *Server
	addr   string
}

func newIBEOnlyFixture(t *testing.T, workers int) *ibeOnlyFixture {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, msgLen)
	if err != nil {
		t.Fatal(err)
	}
	ibe := core.NewIBESEM(pkg.Public(), reg)
	srv, err := NewServer(Config{
		Registry: reg,
		IBE:      ibe,
		Pairing:  pp,
		Workers:  workers,
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
	t.Cleanup(func() {
		_ = srv.Close()
		wg.Wait()
	})
	return &ibeOnlyFixture{
		pp:     pp,
		reg:    reg,
		pkg:    pkg,
		ibe:    ibe,
		server: srv,
		addr:   ln.Addr().String(),
	}
}

// enrollID splits an identity key and registers the SEM half, returning the
// user half.
func (f *ibeOnlyFixture) enrollID(t *testing.T, id string) *core.UserKeyHalf {
	t.Helper()
	user, semHalf, err := f.pkg.SplitExtract(rand.Reader, id)
	if err != nil {
		t.Fatal(err)
	}
	f.ibe.Register(semHalf)
	return user
}

// TestConcurrentTokenStress hammers the worker pool from many connections
// and identities at once; run under -race it exercises the shared
// precomputation cache, the registry, and the pipeline machinery together.
func TestConcurrentTokenStress(t *testing.T) {
	f := newIBEOnlyFixture(t, 0) // default pool = GOMAXPROCS
	const (
		nIdentities = 4
		nConns      = 8
		nRequests   = 6
	)
	users := make([]*core.UserKeyHalf, nIdentities)
	for i := range users {
		users[i] = f.enrollID(t, fmt.Sprintf("user%d@example.com", i))
	}

	errs := make(chan error, nConns)
	for c := 0; c < nConns; c++ {
		go func(c int) {
			client, err := Dial(f.addr, f.pp, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			user := users[c%nIdentities]
			msg := bytes.Repeat([]byte{byte(c)}, msgLen)
			for r := 0; r < nRequests; r++ {
				ct, err := f.pkg.Public().Encrypt(rand.Reader, user.ID, msg)
				if err != nil {
					errs <- err
					return
				}
				got, err := client.DecryptIBE(f.pkg.Public(), user, ct)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, msg) {
					errs <- fmt.Errorf("conn %d round %d: wrong plaintext", c, r)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < nConns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if got := f.ibe.PairerCacheLen(); got != nIdentities {
		t.Fatalf("cache holds %d programs, want %d", got, nIdentities)
	}
	st := f.ibe.PairerCacheStats()
	// Every request beyond the first per identity hits: connections missing
	// together on one identity find the same cache entry and share its one
	// build (IBESEM.Token inserts the entry before building it).
	if want := uint64(nConns*nRequests - nIdentities); st.Hits < want {
		t.Fatalf("stats = %+v, want ≥%d hits", st, want)
	}
}

// TestSingleWorkerServesManyConnections pins the pool to one worker: the
// pipeline must still serve all connections (serialized, not deadlocked).
func TestSingleWorkerServesManyConnections(t *testing.T) {
	f := newIBEOnlyFixture(t, 1)
	if got := f.server.Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
	user := f.enrollID(t, testID)
	msg := bytes.Repeat([]byte{7}, msgLen)

	const nConns = 5
	errs := make(chan error, nConns)
	for c := 0; c < nConns; c++ {
		go func() {
			client, err := Dial(f.addr, f.pp, 5*time.Second)
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
			got, err := client.DecryptIBE(f.pkg.Public(), user, ct)
			if err == nil && !bytes.Equal(got, msg) {
				err = errors.New("wrong plaintext")
			}
			errs <- err
		}()
	}
	for c := 0; c < nConns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedFramesAnsweredInOrder writes a burst of frames without
// reading any responses, then checks the responses come back in request
// order — the FIFO contract of the per-connection writer.
func TestPipelinedFramesAnsweredInOrder(t *testing.T) {
	f := newIBEOnlyFixture(t, 0)
	f.reg.Revoke("revoked@example.com", "pattern bit")

	conn, _, _ := rawConn(t, f.addr, wire.V2Version)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Frame i asks for the revocation status of an identity whose status
	// encodes i's parity, so a reordered response is detectable.
	const n = 32
	var enc wire.FrameEncoder
	for i := 0; i < n; i++ {
		id := "fine@example.com"
		if i%2 == 1 {
			id = "revoked@example.com"
		}
		frame, err := enc.EncodeRequest(opStatus, []wire.ReqItem{{ID: []byte(id)}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	var dec wire.FrameDecoder
	for i := 0; i < n; i++ {
		op, items, _, err := dec.ReadResponse(conn, 0, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if op != opStatus || len(items) != 1 || items[0].Status != statusOK || len(items[0].Data) != 1 {
			t.Fatalf("response %d: op=%d items=%+v", i, op, items)
		}
		if want := i%2 == 1; (items[0].Data[0] == 1) != want {
			t.Fatalf("response %d out of order: revoked=%v, want %v", i, items[0].Data[0] == 1, want)
		}
	}
}

// TestCacheEvictionOverTheWire drives more identities through the daemon
// than the precomputation cache holds: the cache stays at its capacity,
// identities asked less often than the ones holding programs are served
// without one (and evict nothing), one asked more often displaces a program,
// and service is unaffected throughout. The cache's frequency sketch is
// seeded per process and shares counters between identities, so the counts
// below leave room for the rare newcomer that inherits a resident's count.
func TestCacheEvictionOverTheWire(t *testing.T) {
	f := newIBEOnlyFixture(t, 0)
	msg := bytes.Repeat([]byte{0xE7}, msgLen)

	client, err := Dial(f.addr, f.pp, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	users := make(map[string]*core.UserKeyHalf)
	newcomer := func() string {
		id := fmt.Sprintf("evict%d@example.com", len(users))
		users[id] = f.enrollID(t, id)
		return id
	}
	decrypt := func(id string) {
		t.Helper()
		ct, err := f.pkg.Public().Encrypt(rand.Reader, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptIBE(f.pkg.Public(), users[id], ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s: wrong plaintext", id)
		}
	}

	// Fill the cache with identities asked twice each; it is full when a
	// first request no longer grows it.
	capacity := -1
	for f.ibe.PairerCacheLen() > capacity {
		capacity = f.ibe.PairerCacheLen()
		id := newcomer()
		decrypt(id)
		decrypt(id)
	}
	if capacity < 2 || len(users) != capacity+1 {
		t.Fatalf("cache stopped growing at %d programs after %d identities", capacity, len(users))
	}

	const once = 16
	before := f.ibe.PairerCacheStats()
	for i := 0; i < once; i++ {
		decrypt(newcomer())
		if got := f.ibe.PairerCacheLen(); got != capacity {
			t.Fatalf("cache holds %d programs, capacity %d", got, capacity)
		}
	}
	after := f.ibe.PairerCacheStats()
	if refused, evicted := after.Rejected-before.Rejected, after.Evictions-before.Evictions; refused+evicted != once || refused < once-2 {
		t.Fatalf("%d identities asked once against programs asked twice: %d refused, %d evictions; want (nearly) all refused", once, refused, evicted)
	}

	hot := newcomer()
	for i := 0; i < 5; i++ {
		decrypt(hot)
	}
	final := f.ibe.PairerCacheStats()
	if final.Evictions == after.Evictions || final.Hits == after.Hits || f.ibe.PairerCacheLen() != capacity {
		t.Fatalf("an identity asked five times in a row got no program: len %d, stats %+v → %+v", f.ibe.PairerCacheLen(), after, final)
	}
}

// TestRevocationDropsCachedProgramOverTheWire checks the wire-level
// revocation path invalidates the identity's precomputed pairing program
// and that unrevocation restores service with a rebuilt program.
func TestRevocationDropsCachedProgramOverTheWire(t *testing.T) {
	f := newIBEOnlyFixture(t, 0)
	user := f.enrollID(t, testID)
	msg := bytes.Repeat([]byte{0x5C}, msgLen)
	ct, err := f.pkg.Public().Encrypt(rand.Reader, testID, msg)
	if err != nil {
		t.Fatal(err)
	}

	client, err := Dial(f.addr, f.pp, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.DecryptIBE(f.pkg.Public(), user, ct); err != nil {
		t.Fatal(err)
	}
	if f.ibe.PairerCacheLen() != 1 {
		t.Fatal("no precomputed program after first decryption")
	}

	if err := client.Revoke(testID, "wire test"); err != nil {
		t.Fatal(err)
	}
	if f.ibe.PairerCacheLen() != 0 {
		t.Fatal("revocation over the wire left the precomputed program behind")
	}
	if _, err := client.DecryptIBE(f.pkg.Public(), user, ct); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("revoked decryption: %v", err)
	}

	if err := client.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptIBE(f.pkg.Public(), user, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext after unrevoke")
	}
	if f.ibe.PairerCacheLen() != 1 {
		t.Fatal("program not rebuilt after unrevoke")
	}
}

// TestRevokeRacesTokenIssuance revokes an identity while other connections
// are mid-decryption: every response must be either a valid plaintext or
// ErrRevoked — never a stale token — and the cache must be clean at the end.
func TestRevokeRacesTokenIssuance(t *testing.T) {
	f := newIBEOnlyFixture(t, 0)
	user := f.enrollID(t, testID)
	msg := bytes.Repeat([]byte{0xAB}, msgLen)

	const nConns = 6
	start := make(chan struct{})
	errs := make(chan error, nConns)
	for c := 0; c < nConns; c++ {
		go func() {
			client, err := Dial(f.addr, f.pp, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			<-start
			for r := 0; r < 8; r++ {
				ct, err := f.pkg.Public().Encrypt(rand.Reader, testID, msg)
				if err != nil {
					errs <- err
					return
				}
				got, err := client.DecryptIBE(f.pkg.Public(), user, ct)
				switch {
				case err == nil:
					if !bytes.Equal(got, msg) {
						errs <- errors.New("wrong plaintext under revocation race")
						return
					}
				case errors.Is(err, core.ErrRevoked):
					// fine: the revoker won this round
				default:
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	time.Sleep(10 * time.Millisecond)
	f.reg.Revoke(testID, "mid-flight")
	for c := 0; c < nConns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if f.ibe.PairerCacheLen() != 0 {
		// A loser of the Revoke/Add race may have re-cached the program;
		// that is harmless (Token re-checks revocation and the half), but
		// the identity must still be refused.
		if _, err := f.ibe.Token(testID, nil); !errors.Is(err, core.ErrRevoked) {
			t.Fatalf("revoked identity served: %v", err)
		}
	}
}
