package memnet

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// echo is a Server that copies every conn back to itself. It keeps no
// state: Crash closes its listener and its conns.
type echo struct{}

func (echo) Serve(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return nil
		}
		go func() { _, _ = io.Copy(c, c) }()
	}
}

func (echo) Close() error { return nil }

// served returns a network serving an echo under "srv", closed at the end
// of the test.
func served(t *testing.T) *Network {
	t.Helper()
	n := New()
	if err := n.Serve("srv", echo{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	})
	return n
}

// roundTrip writes b on c and reads it back within a second.
func roundTrip(c net.Conn, b string) error {
	_ = c.SetDeadline(time.Now().Add(time.Second))
	if _, err := c.Write([]byte(b)); err != nil {
		return err
	}
	got := make([]byte, len(b))
	if _, err := io.ReadFull(c, got); err != nil {
		return err
	}
	if string(got) != b {
		return errors.New("echo garbled")
	}
	return nil
}

func dial(t *testing.T, n *Network, origin string) net.Conn {
	t.Helper()
	c, err := n.Dialer(origin)("srv", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestDeadlines: a Read or a Write past its deadline fails with a net.Error
// whose Timeout() is true, on memnet as on a TCP conn whose peer neither
// writes nor reads.
func TestDeadlines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tcp, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	n := served(t)
	for name, c := range map[string]net.Conn{"tcp": tcp, "memnet": dial(t, n, "c")} {
		var ne net.Error
		_ = c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := c.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("%s: read past its deadline: %v, want a timeout", name, err)
		}
		_ = c.SetWriteDeadline(time.Now().Add(-time.Second))
		if _, err := c.Write([]byte("x")); !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("%s: write past its deadline: %v, want a timeout", name, err)
		}
	}
}

// TestDialNobodyListens: a dial to a name nobody listens on fails at once,
// as a TCP dial to a closed loopback port is refused.
func TestDialNobodyListens(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	n := served(t)
	for name, dial := range map[string]func() error{
		"tcp":    func() error { _, err := net.DialTimeout("tcp", addr, 5*time.Second); return err },
		"memnet": func() error { _, err := n.Dialer("c")("nobody", 5*time.Second); return err },
	} {
		start := time.Now()
		if err := dial(); err == nil || time.Since(start) > time.Second {
			t.Errorf("%s: dial to nobody: %v after %v, want a refusal at once", name, err, time.Since(start))
		}
	}
}

// TestPartition: a partition severs the live conns of its link both ways and
// refuses new dials across it, and only across it; Heal restores dials.
func TestPartition(t *testing.T) {
	n := served(t)
	a, other := dial(t, n, "a"), dial(t, n, "b")
	n.Partition("srv", "a")
	if err := roundTrip(a, "x"); err == nil {
		t.Fatal("a conn across a partition still carries bytes")
	}
	if _, err := n.Dialer("a")("srv", time.Second); err == nil {
		t.Fatal("a dial across a partition succeeded")
	}
	if err := roundTrip(other, "y"); err != nil {
		t.Fatalf("a partition of srv–a cut srv–b: %v", err)
	}
	n.Heal("a", "srv")
	if err := roundTrip(dial(t, n, "a"), "z"); err != nil {
		t.Fatalf("after Heal: %v", err)
	}
}

// TestHold: a held direction stalls its bytes until Release and no longer;
// the other direction of the link flows meanwhile.
func TestHold(t *testing.T) {
	n := served(t)
	c := dial(t, n, "c")
	n.Hold("c", "srv")
	_ = c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("a write on a held direction went through")
	}
	n.Release("c", "srv")
	if err := roundTrip(c, "x"); err != nil {
		t.Fatalf("after Release: %v", err)
	}
	n.Hold("srv", "c")
	if _, err := c.Write([]byte("y")); err != nil {
		t.Fatalf("holding srv→c stalled c→srv: %v", err)
	}
	n.Release("srv", "c")
	got := make([]byte, 1)
	if _, err := io.ReadFull(c, got); err != nil || got[0] != 'y' {
		t.Fatalf("the echo after Release: %q, %v", got, err)
	}
}

// TestServeAfterCrash: a crash severs the process's conns and frees its
// name, and the next Serve on that name accepts again.
func TestServeAfterCrash(t *testing.T) {
	n := served(t)
	c := dial(t, n, "c")
	n.Crash("srv")
	if err := roundTrip(c, "x"); err == nil {
		t.Fatal("a crashed process still answers")
	}
	if _, err := n.Dialer("c")("srv", time.Second); err == nil {
		t.Fatal("a crashed process still accepts")
	}
	if err := n.Serve("srv", echo{}); err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(dial(t, n, "c"), "y"); err != nil {
		t.Fatalf("after the restart: %v", err)
	}
}

// TestCloseLeavesNoGoroutine: Close stops every server, relay and conn the
// network started.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := New()
	if err := n.Serve("srv", echo{}); err != nil {
		t.Fatal(err)
	}
	n.Intercept("r", "srv", func(client, server net.Conn) {
		go func() { _, _ = io.Copy(server, client) }()
		_, _ = io.Copy(client, server)
	})
	for _, origin := range []string{"c", "r"} {
		c, err := n.Dialer(origin)("srv", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := roundTrip(c, origin); err != nil {
			t.Fatalf("%s: %v", origin, err)
		}
	}
	n.Hold("srv", "c")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
