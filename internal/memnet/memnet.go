// Package memnet is an in-memory network for tests: named listeners,
// per-origin dialers and conns over net.Pipe, with the faults a fleet test
// needs on each link — a partition, one direction held, a relay in the
// middle — and processes served and crashed by name, so a restart reuses
// its name and never races another test for a port.
//
// A link is the pair of names at a conn's two ends: the dialer's origin and
// the listener's name. A dial to a name nobody listens on, or across a
// partitioned link, fails at once; a memnet dial never waits.
package memnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Addr is a memnet address: the name of a listener or of a dialer's origin.
type Addr string

// Network reports "memnet".
func (Addr) Network() string { return "memnet" }

func (a Addr) String() string { return string(a) }

// Server is what Serve runs: sem.Server and cluster.PlayerServer.
type Server interface {
	Serve(net.Listener) error
	Close() error
}

// dir is one direction of a link: bytes written at from, read at to.
type dir struct{ from, to string }

// Network is one in-memory network. Make it with New.
type Network struct {
	mu      sync.Mutex
	closed  bool
	lns     map[string]*listener
	conns   map[*conn]dir         // every live end, by the direction it writes
	cut     map[dir]bool          // partitioned links, both directions
	held    map[dir]chan struct{} // held directions, closed on Release
	relays  map[dir]func(c, s net.Conn)
	running map[string]*proc
	errs    []error
	wg      sync.WaitGroup
}

// New returns an empty network.
func New() *Network {
	return &Network{
		lns: map[string]*listener{}, conns: map[*conn]dir{}, cut: map[dir]bool{},
		held: map[dir]chan struct{}{}, relays: map[dir]func(c, s net.Conn){}, running: map[string]*proc{},
	}
}

// Dialer returns the dial function of a process named origin, in the shape
// of sem.PoolConfig.Dial. The timeout is not used: a memnet dial succeeds
// or fails at once.
func (n *Network) Dialer(origin string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(name string, _ time.Duration) (net.Conn, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		ln := n.lns[name]
		switch {
		case n.closed:
			return nil, errors.New("memnet: network closed")
		case n.cut[dir{origin, name}]:
			return nil, fmt.Errorf("memnet: dial %s from %s: link partitioned", name, origin)
		case ln == nil:
			return nil, fmt.Errorf("memnet: dial %s from %s: connection refused", name, origin)
		case len(ln.queue) == cap(ln.queue):
			return nil, fmt.Errorf("memnet: dial %s from %s: accept queue full", name, origin)
		}
		client, far := n.pipe(origin, name)
		relay := n.relays[dir{origin, name}]
		if relay == nil {
			ln.queue <- far
			return client, nil
		}
		near, server := n.pipe(origin, name)
		ln.queue <- server
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			relay(far, near)
			_ = far.Close()
			_ = near.Close()
		}()
		return client, nil
	}
}

// pipe makes one connected pair on the link origin–name. Callers hold n.mu.
func (n *Network) pipe(origin, name string) (dialed, accepted *conn) {
	c1, c2 := net.Pipe()
	dialed = &conn{Conn: c1, n: n, out: dir{origin, name}, closed: make(chan struct{})}
	accepted = &conn{Conn: c2, n: n, out: dir{name, origin}, closed: make(chan struct{})}
	dialed.peer, accepted.peer = accepted, dialed
	n.conns[dialed], n.conns[accepted] = dialed.out, accepted.out
	return dialed, accepted
}

// Partition severs every live conn between a and b, both ways, and refuses
// new dials between them until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.cut[dir{a, b}], n.cut[dir{b, a}] = true, true
	n.mu.Unlock()
	n.sever(func(d dir) bool { return d == dir{a, b} || d == dir{b, a} })
}

// sever closes every live end whose direction matches.
func (n *Network) sever(match func(dir) bool) {
	n.mu.Lock()
	var ends []*conn
	for c, d := range n.conns {
		if match(d) {
			ends = append(ends, c)
		}
	}
	n.mu.Unlock()
	for _, c := range ends {
		_ = c.Close()
	}
}

// Heal lets a and b dial each other again.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cut, dir{a, b})
	delete(n.cut, dir{b, a})
	n.mu.Unlock()
}

// Hold stalls the bytes from one end of the link to the other, on live and
// new conns alike: a write at from waits (until its deadline), so a read at
// to finds nothing. The other direction flows.
func (n *Network) Hold(from, to string) {
	n.mu.Lock()
	if n.held[dir{from, to}] == nil {
		n.held[dir{from, to}] = make(chan struct{})
	}
	n.mu.Unlock()
}

// Release lets held bytes flow again.
func (n *Network) Release(from, to string) {
	n.mu.Lock()
	if open := n.held[dir{from, to}]; open != nil {
		close(open)
		delete(n.held, dir{from, to})
	}
	n.mu.Unlock()
}

// Intercept runs relay on every later dial from origin to name in place of
// a direct conn: client is the end the dialer talks to, server a fresh conn
// to the listener. Both are closed when relay returns.
func (n *Network) Intercept(origin, name string, relay func(client, server net.Conn)) {
	n.mu.Lock()
	n.relays[dir{origin, name}] = relay
	n.mu.Unlock()
}

// proc is one served process.
type proc struct {
	s       Server
	ln      *listener
	crashed bool
	done    chan struct{}
}

// Serve runs s on a listener named name until Crash or Close. An error
// from s.Serve that neither caused is reported by Close.
func (n *Network) Serve(name string, s Server) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.closed:
		return errors.New("memnet: network closed")
	case n.lns[name] != nil:
		return fmt.Errorf("memnet: serve %s: name in use", name)
	}
	// The queue is an accept backlog: a dial past it is refused, as a full
	// listen queue refuses a TCP connect.
	ln := &listener{n: n, name: name, queue: make(chan net.Conn, 64), done: make(chan struct{})}
	pr := &proc{s: s, ln: ln, done: make(chan struct{})}
	n.lns[name], n.running[name] = ln, pr
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(pr.done)
		err := s.Serve(ln)
		n.mu.Lock()
		if err != nil && !pr.crashed {
			n.errs = append(n.errs, fmt.Errorf("memnet: serve %s: %w", name, err))
		}
		n.mu.Unlock()
	}()
	return nil
}

// Crash closes the process served under name, severs every conn with an
// end at name, as a process's death resets its sockets, and waits for its
// Serve to return; the name is free for the next Serve.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	pr := n.running[name]
	delete(n.running, name)
	if pr != nil {
		pr.crashed = true
	}
	n.mu.Unlock()
	if pr == nil {
		return
	}
	_ = pr.s.Close()
	_ = pr.ln.Close()
	n.sever(func(d dir) bool { return d.from == name || d.to == name })
	<-pr.done
}

// Close crashes every served process, closes every conn, waits for every
// goroutine the network started and returns the Serve errors it saw.
func (n *Network) Close() error {
	n.mu.Lock()
	n.closed = true
	var names []string
	for name := range n.running {
		names = append(names, name)
	}
	n.mu.Unlock()
	for _, name := range names {
		n.Crash(name)
	}
	n.sever(func(dir) bool { return true })
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	return errors.Join(n.errs...)
}

// listener is a named accept queue.
type listener struct {
	n     *Network
	name  string
	queue chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (ln *listener) Accept() (net.Conn, error) {
	select {
	case c := <-ln.queue:
		return c, nil
	case <-ln.done:
		return nil, net.ErrClosed
	}
}

// Close frees the name and closes the conns nobody accepted.
func (ln *listener) Close() error {
	ln.once.Do(func() {
		ln.n.mu.Lock()
		if ln.n.lns[ln.name] == ln {
			delete(ln.n.lns, ln.name)
		}
		close(ln.done)
		var unaccepted []net.Conn
		for len(ln.queue) > 0 {
			unaccepted = append(unaccepted, <-ln.queue)
		}
		ln.n.mu.Unlock()
		for _, c := range unaccepted {
			_ = c.Close()
		}
	})
	return nil
}

func (ln *listener) Addr() net.Addr { return Addr(ln.name) }

// conn is one end of a pipe: net.Pipe's deadlines, plus the hold on the
// direction it writes and its link's names for addresses.
type conn struct {
	net.Conn
	n    *Network
	peer *conn
	out  dir

	mu            sync.Mutex
	writeDeadline time.Time
	closeOnce     sync.Once
	closed        chan struct{}
}

// Write waits while the direction is held, then writes.
func (c *conn) Write(b []byte) (int, error) {
	for {
		c.n.mu.Lock()
		open := c.n.held[c.out]
		c.n.mu.Unlock()
		if open == nil {
			return c.Conn.Write(b) //cryptolint:nodeadline (pass-through wrapper: the conn's owner sets its deadlines, which SetDeadline and SetWriteDeadline forward)
		}
		if err := c.wait(open); err != nil {
			return 0, err
		}
	}
}

// wait returns nil once open is closed, or why it stopped waiting: the
// write deadline passed, or an end closed.
func (c *conn) wait(open chan struct{}) error {
	c.mu.Lock()
	deadline := c.writeDeadline
	c.mu.Unlock()
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-open:
		return nil
	case <-expired:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	case <-c.peer.closed:
		return io.ErrClosedPipe
	}
}

func (c *conn) SetDeadline(t time.Time) error {
	_ = c.SetWriteDeadline(t)
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.n.mu.Lock()
		delete(c.n.conns, c)
		c.n.mu.Unlock()
	})
	return c.Conn.Close()
}

func (c *conn) LocalAddr() net.Addr  { return Addr(c.out.from) }
func (c *conn) RemoteAddr() net.Addr { return Addr(c.out.to) }
