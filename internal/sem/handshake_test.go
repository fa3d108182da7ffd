package sem

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestNonSEM2OpenerClosed pins the strict handshake: a connection whose
// first bytes are not the "SEM2" preamble — here a length-prefixed JSON
// frame, as a client of the retired v1 protocol would send — is closed
// without a byte of answer and with exactly one log line, and the listener
// keeps serving everybody else.
func TestNonSEM2OpenerClosed(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	srv, err := NewServer(Config{
		Registry: core.NewRegistry(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	addr := ln.Addr().String()

	for _, opener := range [][]byte{
		append([]byte{0, 0, 0, 13}, `{"op":"ping"}`...), // a v1 JSON frame
		[]byte("SEMx\x02"), // right first byte, wrong magic
		[]byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opener); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// A reset instead of a clean close is fine (the server hung up with
		// our bytes unread); an answer, or a connection left open, is not.
		got, err := io.ReadAll(conn)
		if len(got) != 0 {
			t.Fatalf("opener %q was answered with %x", opener, got)
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("opener %q: connection left open", opener)
		}
		_ = conn.Close()
	}
	// Handlers log before they hang up, so all three lines are in by the
	// time the reads above returned.
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("want one log line per refused connection, got %d: %q", n, logged)
	}

	client, err := Dial(addr, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := client.Ping(); err != nil {
		t.Fatalf("listener stopped serving after refusing strangers: %v", err)
	}
}

// TestClientMethodSetParity is what keeps the two client flavours from
// drifting apart again: every exported method of *Pool — the typed
// operations, Close — must exist on *ShardedClient with the identical
// signature. Only what is about one daemon's connections is exempt. The
// shared set is pinned by name, so removing a method means naming it here.
func TestClientMethodSetParity(t *testing.T) {
	poolOnly := map[string]bool{
		"Addr":  true, // the one address a pool targets (ShardedClient has Addrs)
		"Stats": true, // per-connection wire accounting
	}
	// The three half-ops, five full protocols, five batch forms, seven
	// admin ops, three repl ops, the threshold share in both forms and
	// Close.
	shared := []string{
		"IBEToken", "GDHHalfSign", "RSAHalfSign",
		"DecryptIBE", "SignGDH", "DecryptRSA", "SignRSA", "DecryptGM",
		"TokenBatch", "GDHHalfSignBatch", "RSAHalfDecryptBatch", "RegisterIBEBatch", "RegisterGDHBatch",
		"ThresholdShare", "ThresholdShareBatch",
		"Ping", "Revoke", "Unrevoke", "Status", "RegisterIBE", "RegisterGDH", "ListRevoked",
		"ReplStatus", "ReplAppend", "ReplSnapshot",
		"Close",
	}
	pool := reflect.TypeOf((*Pool)(nil))
	sharded := reflect.TypeOf((*ShardedClient)(nil))
	listed := map[string]bool{}
	for _, name := range shared {
		listed[name] = true
		m, ok := pool.MethodByName(name)
		if !ok {
			t.Errorf("*Pool lacks %s", name)
			continue
		}
		sm, ok := sharded.MethodByName(name)
		if !ok {
			t.Errorf("*ShardedClient lacks %s", name)
			continue
		}
		// Compare signatures without the receiver.
		if got, want := signature(sm.Type), signature(m.Type); got != want {
			t.Errorf("%s: *ShardedClient has %s, *Pool has %s", name, got, want)
		}
	}
	for i := 0; i < pool.NumMethod(); i++ {
		if name := pool.Method(i).Name; !poolOnly[name] && !listed[name] {
			t.Errorf("*Pool.%s is neither in the shared set nor pool-only", name)
		}
	}
}

func signature(fn reflect.Type) string {
	var b bytes.Buffer
	b.WriteString("func(")
	for i := 1; i < fn.NumIn(); i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		b.WriteString(fn.In(i).String())
	}
	b.WriteString(") (")
	for i := 0; i < fn.NumOut(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(fn.Out(i).String())
	}
	b.WriteString(")")
	return strings.TrimSuffix(b.String(), " ()")
}

// TestServeOnClosedServer: Close may win the race against a Serve that was
// started in a goroutine (a deployment torn down right after it was built).
// Serve must then refuse and close the listener, so a client gets a refused
// dial instead of hanging in an accept backlog nobody drains.
func TestServeOnClosedServer(t *testing.T) {
	srv, err := NewServer(Config{Registry: core.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on a closed server returned nil")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		_ = conn.Close()
		t.Fatal("the listener of a closed server still accepts")
	}
}
