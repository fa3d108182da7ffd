// Package conngood exercises the deadlinecheck negative cases: the
// IOTimeout idioms from the serving stack, delegation to a helper that
// deadlines its own parameter, and both escape forms.
package conngood

import (
	"bytes"
	"time"

	"repro/internal/conn"
	"repro/internal/wire"
)

// Probe sets a whole-operation deadline up front.
func Probe(addr string, timeout time.Duration) ([]byte, error) {
	c, err := conn.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(timeout))
	buf := make([]byte, 64)
	if _, err := c.Read(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Serve uses the conditional per-frame idiom: a deadline refreshed before
// every read when a timeout is configured. The check is source-order, not
// path-sensitive, so the guarded call satisfies it.
func Serve(c *conn.Conn, timeout time.Duration, buf []byte) error {
	for {
		if timeout > 0 {
			_ = c.SetReadDeadline(time.Now().Add(timeout))
		}
		if _, err := wire.ReadFrame(c, buf); err != nil {
			return err
		}
	}
}

// pumpSafe deadlines its own parameter, so it is not I/O-performing and
// its callers owe nothing.
func pumpSafe(c *conn.Conn, buf []byte) error {
	_ = c.SetDeadline(time.Now().Add(time.Second))
	_, err := wire.ReadFrame(c, buf)
	return err
}

// Fetch delegates to the self-deadlining helper.
func Fetch(addr string) ([]byte, error) {
	c, err := conn.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	buf := make([]byte, 64)
	if err := pumpSafe(c, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Loopback writes through an in-memory pipe; the line escape sanctions it.
func Loopback(addr string, msg []byte) error {
	c, err := conn.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = wire.WriteFrame(c, msg) //cryptolint:nodeadline (in-memory loopback pipe, no peer to stall)
	return err
}

// Drain is a test harness helper; the doc marker sanctions the whole body.
//
//cryptolint:nodeadline (test harness: the harness controls both ends)
func Drain(addr string) error {
	c, err := conn.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 64)
	_, err = c.Read(buf)
	return err
}

// Buffered is not connection I/O at all: bytes.Buffer has Write but no
// deadline methods.
func Buffered(msg []byte) (int, error) {
	var b bytes.Buffer
	return b.Write(msg)
}

// framed embeds a connection and reads through its own receiver.
type framed struct {
	*conn.Conn
}

// fill does I/O on its receiver. A receiver has no positional argument
// index, so the interprocedural classification cannot carry this duty to
// fill's callers (the analyzer is a lower bound); it must not try to.
func (f *framed) fill(buf []byte) error {
	_, err := f.Read(buf)
	return err
}

// Refill calls the receiver-reading method with arguments of its own.
func Refill(addr string) ([]byte, error) {
	c, err := conn.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	f := &framed{c}
	buf := make([]byte, 64)
	return buf, f.fill(buf)
}
