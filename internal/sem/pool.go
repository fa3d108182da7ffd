package sem

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/mrsa"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// Pool is the high-throughput replacement for the mutex-serialized Client:
// up to Size multiplexed v2 connections to one SEM address, each pipelining
// many in-flight frames. Concurrent callers never serialize behind one
// round trip — each connection runs a dispatcher that coalesces whatever
// calls are waiting into one batch frame per op (amortizing framing and
// syscalls exactly like an explicit TokenBatch), a FIFO of in-flight frames,
// and a reader that distributes response items back to the callers.
//
// Connections dial lazily, are health-checked by a background ping, and are
// evicted and re-dialed automatically when the peer dies. All methods are
// safe for concurrent use.
type Pool struct {
	addr string
	pp   *pairing.Params
	cfg  PoolConfig
	met  *poolMetrics

	mu      sync.Mutex
	cond    *sync.Cond // signaled when conns or dialing changes
	conns   []*muxConn
	rr      int
	dialing int
	closed  bool

	healthStop chan struct{}
	healthWG   sync.WaitGroup
}

// PoolConfig tunes a Pool. The zero value is usable: 4 connections, 5s
// dial timeout, the Client's default 30s op timeout, 15s health pings.
type PoolConfig struct {
	// Size is the connection cap; ≤ 0 selects DefaultPoolSize.
	Size int
	// DialTimeout covers TCP connect plus the v2 preamble exchange.
	DialTimeout time.Duration
	// OpTimeout bounds the read of each response frame (and each frame
	// write). 0 selects the Client default (30s); negative disables.
	OpTimeout time.Duration
	// HealthInterval is the background ping cadence keeping idle
	// connections alive (SEM servers close idle peers after IOTimeout) and
	// detecting dead ones early. 0 selects 15s; negative disables.
	HealthInterval time.Duration
	// Metrics, when set, registers the sempool_* series.
	Metrics *obs.Registry
}

// Pool defaults.
const (
	DefaultPoolSize       = 4
	defaultDialTimeout    = 5 * time.Second
	defaultHealthInterval = 15 * time.Second
)

// poolMetrics is nil-safe like the ring's: an uninstrumented pool records
// into live, unregistered metrics.
type poolMetrics struct {
	dials      *obs.Counter
	dialErrors *obs.Counter
	evictions  *obs.Counter
	retries    *obs.Counter
	frames     *obs.Counter
	frameItems *obs.Counter
	conns      *obs.Gauge
	inflight   *obs.Gauge
}

func newPoolMetrics(reg *obs.Registry) *poolMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &poolMetrics{
		dials:      reg.Counter("sempool_dials_total", "pool connection dials"),
		dialErrors: reg.Counter("sempool_dial_errors_total", "pool dial failures"),
		evictions:  reg.Counter("sempool_evictions_total", "pool connections evicted after a transport failure"),
		retries:    reg.Counter("sempool_retries_total", "chunks retried on a fresh connection after a transport failure"),
		frames:     reg.Counter("sempool_frames_total", "request frames sent by the pool"),
		frameItems: reg.Counter("sempool_frame_items_total", "items carried in pool request frames (÷ frames = coalescing factor)"),
		conns:      reg.Gauge("sempool_conns", "live pool connections"),
		inflight:   reg.Gauge("sempool_inflight_frames", "frames awaiting a response across all pool connections"),
	}
}

// NewPool creates a pool for addr. No connection is dialed until the first
// operation. pp may be nil when only RSA/admin ops will be used.
func NewPool(addr string, pp *pairing.Params, cfg PoolConfig) *Pool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = defaultOpTimeout
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	p := &Pool{
		addr:       addr,
		pp:         pp,
		cfg:        cfg,
		met:        newPoolMetrics(cfg.Metrics),
		healthStop: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	if cfg.HealthInterval > 0 {
		p.healthWG.Add(1)
		go p.healthLoop()
	}
	return p
}

// Addr reports the pool's target address.
func (p *Pool) Addr() string { return p.addr }

// Close tears down every connection. In-flight calls fail with
// ErrClientClosed; Close is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	close(p.healthStop)
	for _, mc := range conns {
		mc.fail(ErrClientClosed)
	}
	p.healthWG.Wait()
	return nil
}

// healthLoop pings every live connection each HealthInterval. A failed ping
// makes the connection fail itself (read error → eviction), so the next
// caller dials fresh instead of inheriting a dead socket.
func (p *Pool) healthLoop() {
	defer p.healthWG.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.healthStop:
			return
		case <-t.C:
		}
		p.mu.Lock()
		conns := append([]*muxConn(nil), p.conns...)
		p.mu.Unlock()
		for _, mc := range conns {
			// The error path needs no handling here: a transport failure
			// already evicted the connection.
			_, _ = mc.roundTrip(v2OpPing, []wire.ReqItem{{}})
		}
	}
}

// get returns a live connection (round-robin), dialing lazily: the first
// call dials synchronously, and while the pool is below Size each call
// tops it up with one background dial so the pool grows under load without
// putting the dial latency on anyone's critical path. Concurrent callers
// on an empty pool never dial past Size — excess callers wait for an
// in-flight dial instead of opening their own connection (which would
// defeat coalescing and overshoot the cap).
func (p *Pool) get() (*muxConn, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClientClosed
		}
		if len(p.conns) > 0 {
			mc := p.conns[p.rr%len(p.conns)]
			p.rr++
			grow := len(p.conns)+p.dialing < p.cfg.Size
			if grow {
				p.dialing++
			}
			p.mu.Unlock()
			if grow {
				go func() { _, _ = p.dialConn() }()
			}
			return mc, nil
		}
		if p.dialing == 0 {
			p.dialing++
			p.mu.Unlock()
			return p.dialConn()
		}
		// Someone is dialing; wait for their connection (or their failure)
		// rather than stacking another dial.
		p.cond.Wait()
	}
}

// dialConn dials, negotiates v2 and installs the connection. It owns one
// unit of p.dialing.
func (p *Pool) dialConn() (*muxConn, error) {
	p.met.dials.Inc()
	mc, err := dialMux(p)
	p.mu.Lock()
	p.dialing--
	if err != nil {
		p.cond.Broadcast()
		p.mu.Unlock()
		p.met.dialErrors.Inc()
		return nil, err
	}
	if p.closed {
		p.cond.Broadcast()
		p.mu.Unlock()
		mc.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	p.conns = append(p.conns, mc)
	p.met.conns.Set(int64(len(p.conns)))
	p.cond.Broadcast()
	p.mu.Unlock()
	return mc, nil
}

// evict removes a failed connection from the rotation.
func (p *Pool) evict(mc *muxConn) {
	p.mu.Lock()
	for i, c := range p.conns {
		if c == mc { //cryptolint:public (pointer-identity match in the connection rotation; not key material)
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			p.met.evictions.Inc()
			break
		}
	}
	p.met.conns.Set(int64(len(p.conns)))
	p.cond.Broadcast()
	p.mu.Unlock()
}

// poolCall is one caller's submission to a connection dispatcher: an op
// and its items, answered exactly once on done.
type poolCall struct {
	op    byte
	items []wire.ReqItem
	done  chan poolResult
}

// poolResult carries either the call's response items (data copied out of
// the decoder buffer, safe to retain) or the transport error that voided
// the call.
type poolResult struct {
	items []poolItem
	err   error
}

// poolItem is one response item with pool-owned backing memory.
type poolItem struct {
	status byte
	data   []byte //cryptolint:public (received wire bytes, known to the peer: the stance of wire's frame buffers)
}

// muxConn is one multiplexed v2 connection: a writer goroutine that
// coalesces submitted calls into batch frames, a FIFO of in-flight frames,
// and a reader goroutine that matches response frames back to their calls
// in order (the server answers frames strictly in request order).
type muxConn struct {
	pool     *Pool
	conn     net.Conn
	maxBatch int
	maxFrame int

	submitCh   chan *poolCall
	inflight   chan []*poolCall
	done       chan struct{} // closed by fail; stops both loops
	writerDone chan struct{}
	failOnce   sync.Once
	err        atomic.Value // error; set before done closes
}

// dialMux dials and negotiates one v2 connection and starts its loops.
func dialMux(p *Pool) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial SEM pool: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(p.cfg.DialTimeout))
	if err := wire.WriteV2Hello(conn, wire.V2Version); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("sem pool: v2 hello: %w", err)
	}
	_, maxBatch, maxFrame, err := wire.ReadV2Ack(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("sem pool: v2 ack: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	mc := &muxConn{
		pool:       p,
		conn:       conn,
		maxBatch:   maxBatch,
		maxFrame:   maxFrame,
		submitCh:   make(chan *poolCall),
		inflight:   make(chan []*poolCall, pipelineDepth),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc, nil
}

// fail marks the connection dead exactly once: the cause is recorded, the
// socket closed (waking any blocked read/write), both loops released, and
// the connection evicted from its pool. Calls still in flight are answered
// with the cause by the reader's drain.
func (mc *muxConn) fail(cause error) {
	mc.failOnce.Do(func() {
		mc.err.Store(cause)
		close(mc.done)
		_ = mc.conn.Close()
		mc.pool.evict(mc)
	})
}

// failErr returns the recorded cause (after done is closed).
func (mc *muxConn) failErr() error {
	if v := mc.err.Load(); v != nil {
		return v.(error)
	}
	return ErrClientClosed
}

// roundTrip submits one call and waits for its response items.
func (mc *muxConn) roundTrip(op byte, items []wire.ReqItem) ([]poolItem, error) {
	call := &poolCall{op: op, items: items, done: make(chan poolResult, 1)}
	select {
	case mc.submitCh <- call:
	case <-mc.done:
		return nil, mc.failErr()
	}
	res := <-call.done
	return res.items, res.err
}

// writeLoop coalesces calls into frames. It takes one call, then greedily
// drains whatever same-op calls are already waiting (up to the negotiated
// batch limit) into the same frame — under concurrency many callers' single
// ops ride one frame, which is where the pool's throughput comes from.
func (mc *muxConn) writeLoop() {
	defer close(mc.writerDone)
	var held *poolCall
	var itemScratch []wire.ReqItem
	var enc wire.FrameEncoder
	for {
		var first *poolCall
		if held != nil {
			first, held = held, nil
		} else {
			select {
			case first = <-mc.submitCh:
			case <-mc.done:
				return
			}
		}
		batch := append(make([]*poolCall, 0, 8), first)
		n := len(first.items)
		// Yield once before draining: the sender's rendezvous schedules this
		// goroutine immediately (runnext), before other concurrent callers
		// reach their own send. One yield lets them park so the greedy drain
		// below actually finds them — without it every frame carries exactly
		// one call and coalescing never engages.
		runtime.Gosched()
	coalesce:
		for n < mc.maxBatch {
			select {
			case next := <-mc.submitCh:
				if next.op != first.op || n+len(next.items) > mc.maxBatch {
					held = next
					break coalesce
				}
				batch = append(batch, next)
				n += len(next.items)
			case <-mc.done:
				cause := mc.failErr()
				for _, c := range batch {
					c.done <- poolResult{err: cause}
				}
				if held != nil {
					held.done <- poolResult{err: cause}
				}
				return
			default:
				break coalesce
			}
		}

		itemScratch = itemScratch[:0]
		for _, c := range batch {
			itemScratch = append(itemScratch, c.items...)
		}
		frame, err := enc.EncodeRequest(first.op, itemScratch, mc.maxFrame)
		if err != nil {
			// The combined frame exceeds the negotiated cap — a caller-size
			// problem, not a connection problem. Answer the calls and keep
			// the connection.
			for _, c := range batch {
				c.done <- poolResult{err: fmt.Errorf("sem pool: encode %s: %w", opForV2(first.op), err)}
			}
			continue
		}
		// FIFO record first, then write: the reader must find the record
		// when the response lands.
		select {
		case mc.inflight <- batch:
		case <-mc.done:
			cause := mc.failErr()
			for _, c := range batch {
				c.done <- poolResult{err: cause}
			}
			if held != nil {
				held.done <- poolResult{err: cause}
				held = nil
			}
			return
		}
		mc.pool.met.inflight.Inc()
		mc.pool.met.frames.Inc()
		mc.pool.met.frameItems.Add(uint64(n))
		if mc.pool.cfg.OpTimeout > 0 {
			_ = mc.conn.SetWriteDeadline(time.Now().Add(mc.pool.cfg.OpTimeout))
		}
		if _, err := mc.conn.Write(frame); err != nil {
			// The batch just pushed to inflight is answered by the
			// reader's drain.
			mc.fail(fmt.Errorf("sem pool: write %s: %w", opForV2(first.op), err))
			if held != nil {
				held.done <- poolResult{err: mc.failErr()}
				held = nil
			}
			return
		}
	}
}

// readLoop reads response frames and distributes their items back to the
// calls of the oldest in-flight frame. After a failure (its own read error,
// a writer-side failure, or pool close) it drains the in-flight FIFO,
// answering every stranded call with the recorded cause.
func (mc *muxConn) readLoop() {
	var dec wire.FrameDecoder
	for {
		select {
		case batch := <-mc.inflight:
			mc.pool.met.inflight.Dec()
			if mc.readOne(&dec, batch) {
				continue
			}
			mc.drain()
			return
		case <-mc.done:
			mc.drain()
			return
		}
	}
}

// drain answers every in-flight call with the failure cause. The writer
// has exited (or is exiting) by the time this runs, but a final frame may
// still race in — keep draining until the writer is done AND the FIFO is
// empty.
func (mc *muxConn) drain() {
	cause := mc.failErr()
	for {
		select {
		case batch := <-mc.inflight:
			mc.pool.met.inflight.Dec()
			for _, c := range batch {
				c.done <- poolResult{err: cause}
			}
		case <-mc.writerDone:
			for {
				select {
				case batch := <-mc.inflight:
					mc.pool.met.inflight.Dec()
					for _, c := range batch {
						c.done <- poolResult{err: cause}
					}
				default:
					return
				}
			}
		}
	}
}

// readOne reads one response frame and completes batch. It reports false
// when the connection has failed (the caller then drains).
func (mc *muxConn) readOne(dec *wire.FrameDecoder, batch []*poolCall) bool {
	if mc.pool.cfg.OpTimeout > 0 {
		_ = mc.conn.SetReadDeadline(time.Now().Add(mc.pool.cfg.OpTimeout))
	}
	op, items, _, err := dec.ReadResponse(mc.conn, mc.maxFrame, 0)
	if err != nil {
		mc.fail(fmt.Errorf("sem pool: read response: %w", err))
		cause := mc.failErr()
		for _, c := range batch {
			c.done <- poolResult{err: cause}
		}
		return false
	}
	total := 0
	for _, c := range batch {
		total += len(c.items)
	}
	if op != batch[0].op {
		mc.fail(fmt.Errorf("%w: v2 response op %#x does not match request op %#x", ErrProtocol, op, batch[0].op))
		cause := mc.failErr()
		for _, c := range batch {
			c.done <- poolResult{err: cause}
		}
		return false
	}
	if len(items) != total {
		// A single-item error response to a multi-item frame is the
		// server's frame-level refusal; anything else is a protocol break.
		if total > 1 && len(items) == 1 && items[0].Status != v2StatusOK {
			err := decodeError(responseFromV2(opForV2(op), items[0]))
			for _, c := range batch {
				c.done <- poolResult{err: err}
			}
			return true
		}
		mc.fail(fmt.Errorf("%w: v2 response carries %d items, want %d", ErrProtocol, len(items), total))
		cause := mc.failErr()
		for _, c := range batch {
			c.done <- poolResult{err: cause}
		}
		return false
	}
	off := 0
	for _, c := range batch {
		out := make([]poolItem, len(c.items))
		for i := range out {
			it := items[off+i]
			out[i] = poolItem{status: it.Status, data: bytes.Clone(it.Data)}
		}
		off += len(c.items)
		c.done <- poolResult{items: out}
	}
	return true
}

// batchCall is the Pool's raw transport (the batchCaller contract): chunk
// by the connection's negotiated batch limit, one retry per chunk on a
// fresh connection for transport failures — every SEM op is idempotent, so
// replaying a chunk whose connection died is safe.
func (p *Pool) batchCall(op Op, ids []string, payloads [][]byte) ([][]byte, []error, error) {
	if len(ids) != len(payloads) {
		return nil, nil, fmt.Errorf("sem: batch has %d ids but %d payloads", len(ids), len(payloads))
	}
	results := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	if len(ids) == 0 {
		return results, errs, nil
	}
	opByte := v2ByteFor(op)
	lo := 0
	for lo < len(ids) {
		mc, err := p.get()
		if err != nil {
			for i := lo; i < len(ids); i++ {
				errs[i] = err
			}
			return results, errs, err
		}
		hi := lo + mc.maxBatch
		if hi > len(ids) {
			hi = len(ids)
		}
		items := make([]wire.ReqItem, hi-lo)
		for i := range items {
			items[i] = wire.ReqItem{ID: []byte(ids[lo+i]), Payload: payloads[lo+i]}
		}
		res, err := mc.roundTrip(opByte, items)
		if err != nil && !isRemote(err) && p.retryable(err) {
			p.met.retries.Inc()
			mc2, gerr := p.get()
			if gerr == nil {
				res, err = mc2.roundTrip(opByte, items)
			} else {
				err = gerr
			}
		}
		if err != nil {
			for i := lo; i < len(ids); i++ {
				errs[i] = err
			}
			return results, errs, err
		}
		for i, it := range res {
			if it.status != v2StatusOK {
				errs[lo+i] = decodeError(&Response{OK: false, Code: codeForV2Status(it.status), Error: string(it.data)})
				continue
			}
			results[lo+i] = it.data
		}
		lo = hi
	}
	return results, errs, nil
}

// retryable reports whether a transport failure is worth one replay on a
// fresh connection: not when the pool itself is closed.
func (p *Pool) retryable(err error) bool {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	return !closed && err != nil
}

// isRemote reports whether the server answered (failover/retry would only
// repeat the error).
func isRemote(err error) bool { return errors.Is(err, ErrRemote) }

// single runs one op through the pool's coalescing path.
func (p *Pool) single(op Op, id string, payload []byte) ([]byte, error) {
	res, errs, err := p.batchCall(op, []string{id}, [][]byte{payload})
	if err != nil {
		return nil, err
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	return res[0], nil
}

// Ping checks liveness through the pool.
func (p *Pool) Ping() error {
	_, err := p.single(OpPing, "", nil)
	return err
}

// IBEToken requests ê(U, d_ID,sem) through the pool.
func (p *Pool) IBEToken(id string, u *curve.Point) (*pairing.GT, error) {
	if p.pp == nil {
		return nil, errors.New("sem: pool has no pairing params")
	}
	raw, err := p.single(OpIBEToken, id, u.Marshal())
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalGT(p.pp, raw)
}

// GDHHalfSign requests S_sem = x_sem·h through the pool.
func (p *Pool) GDHHalfSign(id string, h *curve.Point) (*curve.Point, error) {
	if p.pp == nil {
		return nil, errors.New("sem: pool has no pairing params")
	}
	raw, err := p.single(OpGDHSign, id, h.Marshal())
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalG1(p.pp.Curve(), raw)
}

// RSAHalfDecrypt requests c^{d_sem} mod n through the pool.
func (p *Pool) RSAHalfDecrypt(pub *mrsa.PublicKey, id string, ciphertext *big.Int) (*big.Int, error) {
	raw, err := p.single(OpRSADecrypt, id, ciphertext.Bytes()) //cryptolint:public (sanctioned wire serialization edge; the ciphertext is on the wire by design)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalScalar(raw, pub.N)
}

// Revoke disables an identity on the pool's SEM.
func (p *Pool) Revoke(id, reason string) error {
	_, err := p.single(OpRevoke, id, []byte(reason))
	return err
}

// Unrevoke restores an identity.
func (p *Pool) Unrevoke(id string) error {
	_, err := p.single(OpUnrevoke, id, nil)
	return err
}

// Status reports whether an identity is revoked.
func (p *Pool) Status(id string) (bool, error) {
	raw, err := p.single(OpStatus, id, nil)
	if err != nil {
		return false, err
	}
	return len(raw) == 1 && raw[0] == 1, nil //cryptolint:public (one-byte revocation status straight off the wire)
}

// ListRevoked fetches the SEM's full revocation list through the pool
// (see Client.ListRevoked for the partial-list semantics).
func (p *Pool) ListRevoked() ([]core.RevocationEntry, error) {
	raw, err := p.single(OpList, "", nil)
	if err != nil {
		return nil, err
	}
	return parseRevocationList(raw)
}

// TokenBatch requests k tokens through the pool (see Client.TokenBatch).
func (p *Pool) TokenBatch(ids []string, us []*curve.Point) ([]*pairing.GT, []error, error) {
	return tokenBatch(p, p.pp, ids, us)
}

// GDHHalfSignBatch requests k half-signatures through the pool.
func (p *Pool) GDHHalfSignBatch(ids []string, hs []*curve.Point) ([]*curve.Point, []error, error) {
	return gdhHalfSignBatch(p, p.pp, ids, hs)
}

// RSAHalfDecryptBatch requests k half-decryptions through the pool.
func (p *Pool) RSAHalfDecryptBatch(pub *mrsa.PublicKey, ids []string, cts []*big.Int) ([]*big.Int, []error, error) {
	return rsaHalfDecryptBatch(p, pub, ids, cts)
}

// RegisterIBEBatch bulk-enrolls SEM IBE halves through the pool.
func (p *Pool) RegisterIBEBatch(ids []string, ds []*curve.Point) ([]error, error) {
	return registerIBEBatch(p, ids, ds)
}

// RegisterGDHBatch bulk-enrolls SEM GDH halves through the pool.
func (p *Pool) RegisterGDHBatch(ids []string, xs []*big.Int) ([]error, error) {
	return registerGDHBatch(p, ids, xs)
}
