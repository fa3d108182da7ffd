package sem

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// Pool is the SEM client: up to Size multiplexed connections to one SEM
// address, each pipelining many in-flight frames, with every typed
// operation of ops on top. Concurrent callers never serialize behind one
// round trip — each connection runs a dispatcher that coalesces whatever
// calls are waiting into one batch frame per op (amortizing framing and
// syscalls exactly like an explicit TokenBatch), a FIFO of in-flight frames,
// and a reader that distributes response items back to the callers.
//
// Connections dial lazily (NewPool) or eagerly (Dial), are health-checked
// by a background ping, and are evicted and re-dialed automatically when
// the peer dies; a call whose connection died is replayed once on a fresh
// one. All methods are safe for concurrent use.
//
// The pool tracks wire bytes per operation class, which is how the T2
// communication experiment measures the paper's "160 bits vs 1024 bits"
// claim on the actual protocol rather than on back-of-envelope sizes: see
// Stats, and the semclient_* series under PoolConfig.Metrics.
type Pool struct {
	ops
	addr string
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
// dial timeout, 30s op timeout, 15s health pings.
type PoolConfig struct {
	// Size is the connection cap; ≤ 0 selects DefaultPoolSize.
	Size int
	// DialTimeout covers TCP connect plus the v2 preamble exchange.
	DialTimeout time.Duration
	// OpTimeout bounds the read of each response frame (and each frame
	// write), so a hung or glacial SEM fails the call instead of stalling
	// the caller forever. 0 selects 30s; negative disables.
	OpTimeout time.Duration
	// HealthInterval is the background ping cadence keeping idle
	// connections alive (SEM servers close idle peers after IOTimeout) and
	// detecting dead ones early. 0 selects 15s; negative disables.
	HealthInterval time.Duration
	// Metrics, when set, registers the sempool_* series and the per-op
	// semclient_* wire accounting.
	Metrics *obs.Registry
}

// Pool defaults.
const (
	DefaultPoolSize       = 4
	defaultDialTimeout    = 5 * time.Second
	defaultOpTimeout      = 30 * time.Second
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

	// Per-op wire accounting (the WireStats view), indexed by op byte and
	// recorded per response frame — a frame is single-op by construction.
	ops       [numOps]opStats
	roundTrip *obs.Histogram
}

// opStats is the counter set behind one op's WireStats.
type opStats struct {
	calls, sent, recv, payload *obs.Counter
}

func newPoolMetrics(reg *obs.Registry) *poolMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &poolMetrics{
		dials:      reg.Counter("sempool_dials_total", "pool connection dials"),
		dialErrors: reg.Counter("sempool_dial_errors_total", "pool dial failures"),
		evictions:  reg.Counter("sempool_evictions_total", "pool connections evicted after a transport failure"),
		retries:    reg.Counter("sempool_retries_total", "chunks retried on a fresh connection after a transport failure"),
		frames:     reg.Counter("sempool_frames_total", "request frames sent by the pool"),
		frameItems: reg.Counter("sempool_frame_items_total", "items carried in pool request frames (÷ frames = coalescing factor)"),
		conns:      reg.Gauge("sempool_conns", "live pool connections"),
		inflight:   reg.Gauge("sempool_inflight_frames", "frames awaiting a response across all pool connections"),
		roundTrip:  reg.Histogram("semclient_roundtrip_seconds", "request frame written to response frame read"),
	}
	for op := range opTable {
		if opTable[op].name == "" {
			continue
		}
		l := obs.Label{Key: "op", Value: string(opTable[op].name)}
		m.ops[op] = opStats{
			calls:   reg.Counter("semclient_requests_total", "client requests, by protocol op", l),
			sent:    reg.Counter("semclient_bytes_sent_total", "wire bytes sent, by protocol op", l),
			recv:    reg.Counter("semclient_bytes_received_total", "wire bytes received, by protocol op", l),
			payload: reg.Counter("semclient_payload_bytes_total", "SEM→user payload bytes (excluding framing), by protocol op", l),
		}
	}
	return m
}

// Stats returns a snapshot of the wire statistics of every operation the
// pool has completed at least once.
func (p *Pool) Stats() map[Op]WireStats {
	out := make(map[Op]WireStats)
	for op, st := range p.met.ops {
		if st.calls.Value() == 0 {
			continue
		}
		out[opTable[op].name] = WireStats{ //cryptolint:public (the operation name is metadata, not key material)
			Calls:           int(st.calls.Value()),
			BytesSent:       int(st.sent.Value()),
			BytesReceived:   int(st.recv.Value()),
			PayloadReceived: int(st.payload.Value()),
		}
	}
	return out
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
		cfg:        cfg,
		met:        newPoolMetrics(cfg.Metrics),
		healthStop: make(chan struct{}),
	}
	p.ops = ops{t: p, pp: pp}
	p.cond = sync.NewCond(&p.mu)
	if cfg.HealthInterval > 0 {
		p.healthWG.Add(1)
		go p.healthLoop()
	}
	return p
}

// Dial connects to a SEM daemon over one connection, established (and the
// protocol negotiated) before Dial returns. pp may be nil when only
// RSA/admin operations will be used. timeout covers the connection
// attempt; the per-operation deadline is PoolConfig's default 30s.
func Dial(addr string, pp *pairing.Params, timeout time.Duration) (*Pool, error) {
	p := NewPool(addr, pp, PoolConfig{Size: 1, DialTimeout: timeout})
	if _, err := p.get(); err != nil {
		_ = p.Close()
		return nil, err
	}
	return p, nil
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
			_, _ = mc.roundTrip(opPing, []wire.ReqItem{{}})
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
// and its items (size is their encoded frame-body length), answered
// exactly once on done.
type poolCall struct {
	op    byte
	items []wire.ReqItem
	size  int
	done  chan poolResult
}

// poolResult carries either the call's response items (data copied out of
// the decoder buffer, safe to retain) or the error that voided the call.
type poolResult struct {
	items []poolItem
	err   error
}

// poolItem is one response item with pool-owned backing memory.
type poolItem struct {
	status byte
	data   []byte //cryptolint:public (received wire bytes, known to the peer: the stance of wire's frame buffers)
}

// sentFrame is one request frame awaiting its response: the calls merged
// into it, plus what the wire accounting needs when the response lands.
type sentFrame struct {
	calls []*poolCall
	bytes int
	at    time.Time
}

// answer completes every call of the frame with err.
func (f sentFrame) answer(err error) {
	for _, c := range f.calls {
		c.done <- poolResult{err: err}
	}
}

// muxConn is one multiplexed connection: a writer goroutine that coalesces
// submitted calls into batch frames, a FIFO of in-flight frames, and a
// reader goroutine that matches response frames back to their calls in
// order (the server answers frames strictly in request order).
type muxConn struct {
	pool     *Pool
	conn     net.Conn
	maxBatch int
	maxFrame int

	submitCh   chan *poolCall
	inflight   chan sentFrame // FIFO as deep as the server's own pipeline
	done       chan struct{}  // closed by fail; stops both loops
	writerDone chan struct{}
	failOnce   sync.Once
	err        atomic.Value // error; set before done closes
}

// dialMux dials and negotiates one connection and starts its loops.
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
		inflight:   make(chan sentFrame, pipelineDepth),
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
	call := &poolCall{op: op, items: items, size: wire.RequestBodySize(items), done: make(chan poolResult, 1)}
	select {
	case mc.submitCh <- call:
	case <-mc.done:
		return nil, mc.failErr()
	}
	res := <-call.done
	return res.items, res.err
}

// writeLoop coalesces calls into frames. It takes one call, then greedily
// drains whatever same-op calls are already waiting into the same frame, up
// to the negotiated batch limit and frame cap — under concurrency many
// callers' single ops ride one frame, which is where the pool's throughput
// comes from. A call that does not fit (other op, too many items, too many
// bytes) is held back and opens the next frame, so merging never makes a
// frame fail that its calls would not have failed alone.
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
		frame := sentFrame{calls: append(make([]*poolCall, 0, 8), first)}
		// Each call's size counts its own 3-byte body header, so the sum
		// over-estimates the merged body by a few bytes per call — on the
		// safe side of the cap.
		n, size := len(first.items), first.size
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
				if next.op != first.op || n+len(next.items) > mc.maxBatch || size+next.size > mc.maxFrame {
					held = next
					break coalesce
				}
				frame.calls = append(frame.calls, next)
				n += len(next.items)
				size += next.size
			case <-mc.done:
				frame.answer(mc.failErr())
				return
			default:
				break coalesce
			}
		}

		itemScratch = itemScratch[:0]
		for _, c := range frame.calls {
			itemScratch = append(itemScratch, c.items...)
		}
		buf, err := enc.EncodeRequest(first.op, itemScratch, mc.maxFrame)
		if err != nil {
			// A call that alone exceeds the negotiated cap — a caller-size
			// problem, not a connection problem. Answer it and keep the
			// connection.
			frame.answer(fmt.Errorf("sem pool: encode %s: %w", opName(first.op), err))
			continue
		}
		frame.bytes, frame.at = len(buf), time.Now()
		// FIFO record first, then write: the reader must find the record
		// when the response lands.
		select {
		case mc.inflight <- frame:
		case <-mc.done:
			frame.answer(mc.failErr())
			if held != nil {
				held.done <- poolResult{err: mc.failErr()}
			}
			return
		}
		mc.pool.met.inflight.Inc()
		mc.pool.met.frames.Inc()
		mc.pool.met.frameItems.Add(uint64(n))
		if mc.pool.cfg.OpTimeout > 0 {
			_ = mc.conn.SetWriteDeadline(time.Now().Add(mc.pool.cfg.OpTimeout))
		}
		if _, err := mc.conn.Write(buf); err != nil {
			// The frame just pushed to inflight is answered by the
			// reader's drain.
			mc.fail(fmt.Errorf("sem pool: write %s: %w", opName(first.op), err))
			if held != nil {
				held.done <- poolResult{err: mc.failErr()}
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
		case frame := <-mc.inflight:
			mc.pool.met.inflight.Dec()
			if err := mc.readOne(&dec, frame); err != nil {
				mc.fail(err)
				frame.answer(mc.failErr())
				mc.drain()
				return
			}
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
		case frame := <-mc.inflight:
			mc.pool.met.inflight.Dec()
			frame.answer(cause)
		case <-mc.writerDone:
			for {
				select {
				case frame := <-mc.inflight:
					mc.pool.met.inflight.Dec()
					frame.answer(cause)
				default:
					return
				}
			}
		}
	}
}

// readOne reads one response frame and completes frame's calls. A non-nil
// error means the connection can no longer be trusted; the caller fails it
// and answers the calls.
func (mc *muxConn) readOne(dec *wire.FrameDecoder, frame sentFrame) error {
	if mc.pool.cfg.OpTimeout > 0 {
		_ = mc.conn.SetReadDeadline(time.Now().Add(mc.pool.cfg.OpTimeout))
	}
	sent := frame.calls[0].op
	op, items, recv, err := dec.ReadResponse(mc.conn, mc.maxFrame, 0)
	if err != nil {
		return fmt.Errorf("sem pool: read response: %w", err)
	}
	total := 0
	for _, c := range frame.calls {
		total += len(c.items)
	}
	if op != sent {
		return fmt.Errorf("%w: response op %#x does not match request op %#x", ErrProtocol, op, sent)
	}
	if len(items) != total {
		// A single-item error response to a multi-item frame is the
		// server's frame-level refusal; anything else is a protocol break.
		if total > 1 && len(items) == 1 && items[0].Status != statusOK {
			frame.answer(remoteErr(items[0].Status, items[0].Data))
			return nil
		}
		return fmt.Errorf("%w: response carries %d items, want %d", ErrProtocol, len(items), total)
	}
	// Account for the frame before answering its callers: whoever holds a
	// result finds it in the counters.
	mc.pool.met.roundTrip.Observe(time.Since(frame.at))
	if opName(sent) != "" {
		payload := 0
		for _, it := range items {
			if it.Status == statusOK {
				payload += len(it.Data)
			}
		}
		st := &mc.pool.met.ops[sent]
		st.calls.Add(uint64(total))
		st.sent.Add(uint64(frame.bytes))
		st.recv.Add(uint64(recv))
		st.payload.Add(uint64(payload))
	}
	off := 0
	for _, c := range frame.calls {
		out := make([]poolItem, len(c.items))
		for i := range out {
			it := items[off+i]
			out[i] = poolItem{status: it.Status, data: bytes.Clone(it.Data)}
		}
		off += len(c.items)
		c.done <- poolResult{items: out}
	}
	return nil
}

// call runs one op's items through a pooled connection, with one replay on
// a fresh connection when the first died in transport — every SEM op is
// idempotent, so replaying a call whose connection failed is safe. The
// returned items are index-aligned with the request's.
func (p *Pool) call(mc *muxConn, op byte, items []wire.ReqItem) ([]poolItem, error) {
	res, err := mc.roundTrip(op, items)
	if err == nil || errors.Is(err, ErrRemote) || errors.Is(err, ErrFrameTooLarge) || p.isClosed() {
		return res, err
	}
	p.met.retries.Inc()
	if mc, err = p.get(); err != nil {
		return nil, err
	}
	return mc.roundTrip(op, items)
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// one sends a single item through the pool's coalescing path (the transport
// contract).
func (p *Pool) one(op byte, id string, payload []byte) ([]byte, error) {
	mc, err := p.get()
	if err != nil {
		return nil, err
	}
	res, err := p.call(mc, op, []wire.ReqItem{{ID: []byte(id), Payload: payload}})
	if err != nil {
		return nil, err
	}
	if res[0].status != statusOK {
		return nil, remoteErr(res[0].status, res[0].data)
	}
	return res[0].data, nil
}

// many sends a batch (the transport contract), one frame per chunk of the
// connection's negotiated batch limit.
func (p *Pool) many(op byte, ids []string, payloads [][]byte) ([][]byte, []error, error) {
	results := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	for lo := 0; lo < len(ids); {
		mc, err := p.get()
		var res []poolItem
		if err == nil {
			items := make([]wire.ReqItem, min(mc.maxBatch, len(ids)-lo))
			for i := range items {
				items[i] = wire.ReqItem{ID: []byte(ids[lo+i]), Payload: payloads[lo+i]}
			}
			res, err = p.call(mc, op, items)
		}
		if err != nil {
			// The failed chunk and everything after it never produced
			// results; keep the chunks already fetched and mark the rest.
			for i := lo; i < len(ids); i++ {
				errs[i] = err
			}
			return results, errs, err
		}
		for i, it := range res {
			if it.status != statusOK {
				errs[lo+i] = remoteErr(it.status, it.data)
				continue
			}
			results[lo+i] = it.data
		}
		lo += len(res)
	}
	return results, errs, nil
}
