package sem

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/wire"
)

// metricsFixture is a minimal SEM (registry-only backends) with an obs
// registry wired in: enough to exercise the dispatch path and the
// exported series without the full crypto enrollment.
func metricsFixture(t *testing.T, cfg Config) (*Server, *Pool, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Registry == nil {
		cfg.Registry = core.NewRegistry()
	}
	cfg.Metrics = reg
	srv, addr := serveTCP(t, cfg)
	return srv, dialTCP(t, addr, nil), reg
}

func TestServerMetricsExported(t *testing.T) {
	srv, _, reg := metricsFixture(t, Config{})
	clientReg := obs.NewRegistry()
	client := NewPool(srv.Addr().String(), nil, PoolConfig{Size: 1, Metrics: clientReg})
	defer func() { _ = client.Close() }()

	for i := 0; i < 3; i++ {
		if err := client.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Revoke("mallory@example.com", "test"); err != nil {
		t.Fatal(err)
	}
	// An unsupported op becomes an error-code metric.
	if _, err := client.one(opIBEToken, "x", nil); err == nil {
		t.Fatal("IBE op on IBE-less server succeeded")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sem_requests_total{op="ping"} 3`,
		`sem_requests_total{op="revoke"} 1`,
		`sem_errors_total{code="unsupported"} 1`,
		`sem_service_seconds_count{op="ping"} 3`,
		"sem_queue_depth 0",
		"sem_workers",
		`sem_connections_total{version="2"} 2`,
		`fp_kernel{impl="` + fp.Kernel() + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("server metrics missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := clientReg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{
		`semclient_requests_total{op="ping"} 3`,
		`semclient_bytes_sent_total{op="ping"}`,
		"semclient_roundtrip_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("client metrics missing %q:\n%s", want, out)
		}
	}

	// The folded counters still present the WireStats view.
	stats := client.Stats()
	if st := stats[OpPing]; st.Calls != 3 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("folded WireStats = %+v", st)
	}
}

// TestServerRecordPathZeroAlloc pins the instrumentation contract on the
// dispatch path: per-request accounting allocates nothing.
func TestServerRecordPathZeroAlloc(t *testing.T) {
	srv, err := NewServer(Config{Registry: core.NewRegistry(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		srv.met.observe(opPing, statusOK, 42*time.Microsecond)
		srv.met.observe(opIBEToken, statusRevoked, 1300*time.Microsecond)
		srv.met.observe(200, statusBadRequest, time.Microsecond) // no such op: the "other" row
	}); n != 0 {
		t.Fatalf("server metric record path allocates %v bytes/op", n)
	}
}

// TestClientOpTimeout proves the deadline satellite: a SEM that negotiates
// and then hangs fails the call within the operation timeout (once on the
// connection, once on the pool's replay) instead of stalling the caller
// forever.
func TestClientOpTimeout(t *testing.T) {
	addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
		_, _ = io.Copy(io.Discard, conn) // read everything, answer nothing
	})
	client := NewPool(addr, nil, PoolConfig{Size: 1, OpTimeout: 100 * time.Millisecond, HealthInterval: -1})
	defer func() { _ = client.Close() }()
	start := time.Now()
	err := client.Ping()
	if err == nil {
		t.Fatal("ping against a hung SEM succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timeout took %v", waited)
	}
}

// TestServerIdleTimeout proves the server side: a peer that goes silent
// past the IO timeout has its connection released.
func TestServerIdleTimeout(t *testing.T) {
	srv, client, reg := metricsFixture(t, Config{IOTimeout: 100 * time.Millisecond})
	conn, _, _ := rawConn(t, srv.Addr().String(), wire.V2Version)
	// Go idle past the server's limit; the server must hang up on us.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read %d bytes, err %v; want EOF from the server's reaper", n, err)
	}
	// The pooled client's connection goes the same way, but not by now for
	// certain: each handler arms its own read deadline when it gets to run,
	// so the one for the connection dialled first can expire last. Wait for
	// the server to have released both before pinging. The client's next op
	// then re-dials instead of surfacing the dead socket.
	deadline := time.Now().Add(5 * time.Second)
	for open := 1; open > 0; {
		srv.mu.Lock()
		open = len(srv.conns)
		srv.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("%d idle connections still open long past the IO timeout", open)
		}
		time.Sleep(time.Millisecond)
	}
	if err := client.Ping(); err != nil {
		t.Fatalf("ping after the idle reap: %v", err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sem_connections_total{version="2"} 3`) {
		t.Fatalf("want three accepted connections (client, raw, client re-dial):\n%s", sb.String())
	}
}
