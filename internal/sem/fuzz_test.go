package sem

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/pairing"
)

// FuzzServeConn feeds arbitrary bytes to the server as one connection's
// whole input stream (handleConn over net.Pipe, against the golden "full"
// daemon so every handler is reachable). Whatever arrives, the handler
// must not panic, must return once the peer hangs up, and must not write a
// single byte to a peer that did not open with the "SEM2" preamble.
func FuzzServeConn(f *testing.F) {
	pp, err := pairing.Toy()
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(goldenFullConfig(f, pp))
	if err != nil {
		f.Fatal(err)
	}
	srv.workersOnce.Do(srv.startWorkers)
	f.Cleanup(func() { _ = srv.Close() })

	// Seeds: the recorded protocol session, whole and frame by frame, plus
	// the openers the strict handshake exists to refuse.
	hello := []byte("SEM2\x02")
	session := bytes.Clone(hello)
	for _, st := range goldenSteps(f, pp) {
		if st.server != "full" || st.hello {
			continue
		}
		f.Add(append(bytes.Clone(hello), st.req...))
		session = append(session, st.req...)
	}
	f.Add(session)
	f.Add([]byte{})
	f.Add([]byte("SEM"))
	f.Add([]byte("SEMx\x02"))
	f.Add(append([]byte{0, 0, 0, 13}, `{"op":"ping"}`...))
	f.Add(append(bytes.Clone(hello), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(append(bytes.Clone(hello), 0, 0, 0, 3, opPing, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			srv.handleConn(server)
		}()
		// Drain concurrently: the pipe is synchronous, so the server's
		// writer would otherwise stall against our own Write.
		answered := make(chan []byte, 1)
		go func() {
			var out bytes.Buffer
			_, _ = io.Copy(&out, client)
			answered <- out.Bytes()
		}()
		_, _ = client.Write(data) // fails early when the server hangs up first
		_ = client.Close()
		select {
		case <-returned:
		case <-time.After(30 * time.Second):
			t.Fatal("handleConn did not return after the peer hung up")
		}
		out := <-answered
		if !bytes.HasPrefix(data, hello[:4]) && len(out) != 0 {
			t.Fatalf("answered %x to a peer that opened with %x", out, data[:min(len(data), 8)])
		}
	})
}
