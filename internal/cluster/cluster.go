// Package cluster is the network embedding of the paper's threshold IBE
// (Section 3): each of the n players runs a PlayerServer holding its
// identity-key shares, and a Recombiner fans a ciphertext out to the
// players, verifies the returned decryption shares' robustness proofs, and
// recombines any t acceptable ones — tolerating unreachable and byzantine
// players exactly as the paper's recombiner is meant to.
//
// Wire format: the shared length-prefixed JSON framing of internal/wire.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/wire"
)

var (
	// ErrUnknownIdentity is returned when a player holds no key share for
	// the identity.
	ErrUnknownIdentity = errors.New("cluster: unknown identity")

	// ErrNotEnoughShares is returned when fewer than t usable shares could
	// be collected.
	ErrNotEnoughShares = errors.New("cluster: not enough valid shares")
)

// request is one recombiner → player message.
type request struct {
	Op string   `json:"op"` // "share" | "shares" | "ping"
	ID string   `json:"id,omitempty"`
	U  []byte   `json:"u,omitempty"`  // compressed ciphertext point ("share")
	Us [][]byte `json:"us,omitempty"` // batched ciphertext points ("shares")
}

// proofWire serializes a core.ShareProof.
type proofWire struct {
	W1 []byte `json:"w1"`
	W2 []byte `json:"w2"`
	E  []byte `json:"e"`
	V  []byte `json:"v"`
}

// response is one player → recombiner message.
type response struct {
	OK     bool        `json:"ok"`
	Error  string      `json:"error,omitempty"`
	Index  int         `json:"index,omitempty"`
	G      []byte      `json:"g,omitempty"`
	Proof  *proofWire  `json:"proof,omitempty"`
	Shares []shareItem `json:"shares,omitempty"` // batched "shares" results
}

// PlayerServer is one decryption server of the cluster. Safe for
// concurrent use.
type PlayerServer struct {
	params *core.ThresholdParams
	index  int

	keysMu sync.RWMutex
	keys   map[string]*core.KeyShare

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// ioTimeout bounds each frame read (doubling as the per-connection idle
	// limit) and each response write, so a hung or glacial peer cannot pin
	// a handler goroutine forever.
	ioTimeout time.Duration

	// misbehave, when set, corrupts outgoing shares — the test hook for
	// byzantine behaviour.
	misbehave func(*core.DecryptionShare) *core.DecryptionShare

	shareRequests *obs.Counter   // player_share_requests_total
	shareErrors   *obs.Counter   // player_share_errors_total
	shareTime     *obs.Histogram // player_share_seconds
}

// Instrument registers the player's serving metrics with reg: share
// request/error counters, the share service-time histogram (the
// pairing-with-proof computation thresholdd spends its CPU on) and the curve
// kernel counters — curve_hash_to_point_total staying flat while share
// requests climb is the visible form of "per-identity constants are computed
// at Install". Call before Serve.
func (p *PlayerServer) Instrument(reg *obs.Registry) {
	l := obs.Label{Key: "player", Value: strconv.Itoa(p.index)}
	p.shareRequests = reg.Counter("player_share_requests_total", "decryption-share requests received", l)
	p.shareErrors = reg.Counter("player_share_errors_total", "share requests answered with an error", l)
	p.shareTime = reg.Histogram("player_share_seconds", "share computation time (incl. proof)", l)
	if reg != nil { // a nil registry would unhook the shared MSM latency histogram
		curve.RegisterMSMMetrics(reg)
	}
}

// defaultIOTimeout is the per-frame read/write deadline a player server
// applies to every connection.
const defaultIOTimeout = 2 * time.Minute

// NewPlayerServer creates player index's server.
func NewPlayerServer(params *core.ThresholdParams, index int) (*PlayerServer, error) {
	if index < 1 || index > params.N {
		return nil, fmt.Errorf("cluster: player index %d out of 1..%d", index, params.N)
	}
	return &PlayerServer{
		params:    params,
		index:     index,
		keys:      make(map[string]*core.KeyShare),
		conns:     make(map[net.Conn]struct{}),
		ioTimeout: defaultIOTimeout,
	}, nil
}

// Install registers the player's key share for an identity (after
// verifying it, as the paper's Keygen demands).
func (p *PlayerServer) Install(share *core.KeyShare) error {
	if share.Index != p.index {
		return fmt.Errorf("cluster: share for player %d installed on player %d", share.Index, p.index)
	}
	if err := p.params.VerifyKeyShare(share); err != nil {
		return fmt.Errorf("cluster: refusing bad key share: %w", err)
	}
	p.keysMu.Lock()
	defer p.keysMu.Unlock()
	p.keys[share.ID] = share
	return nil
}

// SetMisbehaviour installs a share-corrupting hook (tests only).
func (p *PlayerServer) SetMisbehaviour(f func(*core.DecryptionShare) *core.DecryptionShare) {
	p.misbehave = f
}

// Serve accepts connections until Close.
func (p *PlayerServer) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("cluster: player server is closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("cluster accept: %w", err)
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// Addr returns the bound address once serving.
func (p *PlayerServer) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Close stops the server and drains handlers.
func (p *PlayerServer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

func (p *PlayerServer) handle(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
	}()
	for {
		var req request
		_ = conn.SetReadDeadline(time.Now().Add(p.ioTimeout))
		if _, err := wire.ReadFrame(conn, &req); err != nil {
			return
		}
		resp := p.dispatch(&req)
		_ = conn.SetWriteDeadline(time.Now().Add(p.ioTimeout))
		if _, err := wire.WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

func (p *PlayerServer) dispatch(req *request) *response {
	switch req.Op {
	case "ping":
		return &response{OK: true, Index: p.index}
	case "share":
		p.shareRequests.Inc()
		start := time.Now()
		resp := p.shareResponse(req)
		p.shareTime.Observe(time.Since(start))
		if !resp.OK {
			p.shareErrors.Inc()
		}
		return resp
	case "shares":
		p.shareRequests.Add(uint64(len(req.Us)))
		start := time.Now()
		resp := p.sharesResponse(req)
		p.shareTime.Observe(time.Since(start))
		if !resp.OK {
			p.shareErrors.Inc()
		}
		return resp
	default:
		return &response{OK: false, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (p *PlayerServer) shareResponse(req *request) *response {
	p.keysMu.RLock()
	key, ok := p.keys[req.ID]
	p.keysMu.RUnlock()
	if !ok {
		return &response{OK: false, Error: ErrUnknownIdentity.Error()}
	}
	u, err := wire.UnmarshalG1(p.params.Public.Pairing.Curve(), req.U)
	if err != nil {
		return &response{OK: false, Error: "bad ciphertext point: " + err.Error()}
	}
	ds, err := p.params.ComputeShareWithProof(nil, key, u)
	if err != nil {
		return &response{OK: false, Error: err.Error()}
	}
	if p.misbehave != nil {
		ds = p.misbehave(ds)
	}
	return &response{
		OK:    true,
		Index: ds.Index,
		G:     ds.G.Bytes(), //cryptolint:public (sanctioned wire serialization edge; the share goes to the recombiner by design)
		Proof: &proofWire{
			W1: ds.Proof.W1.Bytes(), //cryptolint:public (the NIZK proof is public by construction)
			W2: ds.Proof.W2.Bytes(), //cryptolint:public (the NIZK proof is public by construction)
			E:  ds.Proof.E.Bytes(),  //cryptolint:public (the NIZK proof is public by construction)
			V:  ds.Proof.V.Marshal(),
		},
	}
}

// Recombiner is the designated-player client: it collects, verifies and
// combines decryption shares from the player servers. Connections to
// players persist across decryptions in a small per-player pool, so a
// steady stream of threshold decryptions pays the TCP handshake once per
// player instead of once per operation.
type Recombiner struct {
	params *core.ThresholdParams
	// addrs[i-1] is player i's address ("" = player not deployed).
	addrs   []string
	timeout time.Duration
	met     *recombinerMetrics
	pool    *connPool
}

// connPool caches idle player connections keyed by address. Players close
// idle peers after their IOTimeout, so a cached connection may be stale —
// the round-trip path absorbs that with one fresh-dial retry.
type connPool struct {
	mu      sync.Mutex
	idle    map[string][]net.Conn
	closed  bool
	maxIdle int // per address
}

// maxIdlePerPlayer bounds cached connections per player: one decryption fan
// uses one connection per player, so anything beyond a couple only covers
// concurrent Decrypt callers.
const maxIdlePerPlayer = 2

func newConnPool() *connPool {
	return &connPool{idle: make(map[string][]net.Conn), maxIdle: maxIdlePerPlayer}
}

// get pops an idle connection for addr, or nil when the caller must dial.
func (cp *connPool) get(addr string) net.Conn {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	conns := cp.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	cp.idle[addr] = conns[:len(conns)-1]
	return c
}

// put returns a healthy connection to the pool (closing it instead when the
// pool is full or closed).
func (cp *connPool) put(addr string, c net.Conn) {
	cp.mu.Lock()
	if cp.closed || len(cp.idle[addr]) >= cp.maxIdle {
		cp.mu.Unlock()
		_ = c.Close()
		return
	}
	cp.idle[addr] = append(cp.idle[addr], c)
	cp.mu.Unlock()
}

// size reports the total idle connections (for the cluster_pool_idle gauge).
func (cp *connPool) size() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := 0
	for _, conns := range cp.idle {
		n += len(conns)
	}
	return int64(n)
}

// closeAll closes every idle connection and refuses further caching.
func (cp *connPool) closeAll() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.closed = true
	for addr, conns := range cp.idle {
		for _, c := range conns {
			_ = c.Close()
		}
		delete(cp.idle, addr)
	}
}

// recombinerMetrics instruments the fan-out path: where a threshold
// decryption actually spends its time (per-shareholder network+verify
// latency, and the quorum wait that bounds the whole operation) and which
// players are feeding the recombiner garbage.
type recombinerMetrics struct {
	fetch      []*obs.Histogram // cluster_fetch_seconds{player=...}, index i-1
	verifyFail *obs.Counter     // cluster_verify_failures_total
	quorumWait *obs.Histogram   // cluster_quorum_wait_seconds
	decrypts   *obs.Counter     // cluster_decrypts_total
	rejected   *obs.Counter     // cluster_rejected_shares_total
	poolDials  *obs.Counter     // cluster_pool_dials_total
	poolReuses *obs.Counter     // cluster_pool_reuses_total
	poolRetry  *obs.Counter     // cluster_pool_stale_retries_total
}

// Instrument registers the recombiner's series with reg: one
// cluster_fetch_seconds histogram per player (fetch + NIZK verify, the
// unit of the overlap the Decrypt pipeline exploits), the NIZK
// verification failure counter, and the quorum wait histogram (time until
// every player resolved — the paper's recombiner cannot finish earlier).
// Call before Decrypt; safe to skip entirely.
func (r *Recombiner) Instrument(reg *obs.Registry) {
	m := &recombinerMetrics{
		fetch:      make([]*obs.Histogram, r.params.N),
		verifyFail: reg.Counter("cluster_verify_failures_total", "decryption shares rejected by the NIZK robustness check"),
		quorumWait: reg.Histogram("cluster_quorum_wait_seconds", "time from fan-out until all player fetches resolved"),
		decrypts:   reg.Counter("cluster_decrypts_total", "threshold decryptions attempted"),
		rejected:   reg.Counter("cluster_rejected_shares_total", "player responses rejected (unreachable, malformed or failing verification)"),
		poolDials:  reg.Counter("cluster_pool_dials_total", "player connections dialed by the recombiner"),
		poolReuses: reg.Counter("cluster_pool_reuses_total", "share fetches served over a pooled player connection"),
		poolRetry:  reg.Counter("cluster_pool_stale_retries_total", "fetches replayed on a fresh dial after a pooled connection went stale"),
	}
	for i := 1; i <= r.params.N; i++ {
		m.fetch[i-1] = reg.Histogram("cluster_fetch_seconds", "per-player share fetch + proof verification time",
			obs.Label{Key: "player", Value: strconv.Itoa(i)})
	}
	reg.GaugeFunc("cluster_pool_idle", "idle pooled player connections", r.pool.size)
	r.met = m
}

// The recording helpers are nil-safe so an uninstrumented recombiner pays
// nothing but the receiver check.

func (m *recombinerMetrics) decryptStarted() {
	if m == nil {
		return
	}
	m.decrypts.Inc()
}

func (m *recombinerMetrics) verifyFailed() {
	if m == nil {
		return
	}
	m.verifyFail.Inc()
}

func (m *recombinerMetrics) observeFetch(player int, d time.Duration) {
	if m == nil {
		return
	}
	m.fetch[player-1].Observe(d)
}

func (m *recombinerMetrics) observeQuorumWait(d time.Duration) {
	if m == nil {
		return
	}
	m.quorumWait.Observe(d)
}

func (m *recombinerMetrics) shareRejected() {
	if m == nil {
		return
	}
	m.rejected.Inc()
}

func (m *recombinerMetrics) pooledDial() {
	if m == nil {
		return
	}
	m.poolDials.Inc()
}

func (m *recombinerMetrics) pooledReuse() {
	if m == nil {
		return
	}
	m.poolReuses.Inc()
}

func (m *recombinerMetrics) pooledStaleRetry() {
	if m == nil {
		return
	}
	m.poolRetry.Inc()
}

// NewRecombiner binds a recombiner to the cluster topology.
func NewRecombiner(params *core.ThresholdParams, addrs []string, timeout time.Duration) (*Recombiner, error) {
	if len(addrs) != params.N {
		return nil, fmt.Errorf("cluster: %d addresses for n=%d players", len(addrs), params.N)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Recombiner{params: params, addrs: addrs, timeout: timeout, pool: newConnPool()}, nil
}

// Close releases the recombiner's pooled player connections. The
// recombiner stays usable — subsequent decryptions dial fresh.
func (r *Recombiner) Close() error {
	r.pool.closeAll()
	return nil
}

// roundTrip performs one framed request/response exchange with a player
// over a pooled connection. A transport failure on a reused connection is
// indistinguishable from the player having idle-closed it, so the exchange
// is replayed exactly once on a fresh dial; failures on fresh connections
// are real and propagate.
func (r *Recombiner) roundTrip(addr string, req *request, resp *response) error {
	conn := r.pool.get(addr)
	reused := conn != nil
	if reused {
		r.met.pooledReuse()
	} else {
		var err error
		r.met.pooledDial()
		conn, err = net.DialTimeout("tcp", addr, r.timeout)
		if err != nil {
			return err
		}
	}
	err := exchangeFrames(conn, req, resp, r.timeout)
	if err != nil {
		_ = conn.Close()
		if !reused {
			return err
		}
		r.met.pooledStaleRetry()
		r.met.pooledDial()
		conn, err = net.DialTimeout("tcp", addr, r.timeout)
		if err != nil {
			return err
		}
		*resp = response{}
		if err = exchangeFrames(conn, req, resp, r.timeout); err != nil {
			_ = conn.Close()
			return err
		}
	}
	r.pool.put(addr, conn)
	return nil
}

// exchangeFrames writes one request frame and reads one response frame
// under the round-trip deadline.
func exchangeFrames(conn net.Conn, req *request, resp *response, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := wire.WriteFrame(conn, req); err != nil {
		return err
	}
	_, err := wire.ReadFrame(conn, resp)
	return err
}

// Decrypt fans the ciphertext out to every reachable player, verifies each
// returned share's proof, and recombines t acceptable shares. It returns
// the plaintext together with the indices of players whose responses were
// rejected (unreachable, malformed, or failing the NIZK check).
//
// Proof verification — a multi-pairing per share — runs inside each
// player's fetch goroutine, so the NIZK checks for fast responders overlap
// the network wait for slow ones and each other; the decryption latency is
// dominated by the slowest single fetch+verify chain rather than their sum.
// ThresholdParams' verification-key pairing cache is safe under this
// concurrency.
func (r *Recombiner) Decrypt(id string, c *bf.BasicCiphertext) (msg []byte, rejected []int, err error) {
	type outcome struct {
		index int
		share *core.DecryptionShare
		err   error
	}
	r.met.decryptStarted()
	// Q_ID is the same for all n verifications: hash the identity once.
	qid, err := bf.HashIdentity(r.params.Public.Pairing, id)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	results := make(chan outcome, r.params.N)
	var wg sync.WaitGroup
	for i := 1; i <= r.params.N; i++ {
		addr := r.addrs[i-1]
		if addr == "" { //cryptolint:public (the player's network address, not key material)
			results <- outcome{index: i, err: errors.New("not deployed")}
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			fetchStart := time.Now()
			share, err := r.fetchShare(addr, id, c)
			if err == nil {
				if err = r.params.VerifyShareProofFor(qid, c.U, share); err != nil {
					r.met.verifyFailed()
				}
			}
			r.met.observeFetch(i, time.Since(fetchStart))
			results <- outcome{index: i, share: share, err: err}
		}(i, addr)
	}
	wg.Wait()
	r.met.observeQuorumWait(time.Since(start))
	close(results)

	valid := make([]*core.DecryptionShare, 0, r.params.N)
	for out := range results {
		if out.err != nil {
			rejected = append(rejected, out.index)
			r.met.shareRejected()
			continue
		}
		valid = append(valid, out.share)
	}
	if len(valid) < r.params.T {
		return nil, rejected, fmt.Errorf("%w: %d of %d", ErrNotEnoughShares, len(valid), r.params.N)
	}
	msg, err = r.params.Recombine(valid[:r.params.T], c)
	return msg, rejected, err
}

// fetchShare performs one share request against a player over a pooled
// connection.
func (r *Recombiner) fetchShare(addr, id string, c *bf.BasicCiphertext) (*core.DecryptionShare, error) {
	var resp response
	if err := r.roundTrip(addr, &request{Op: "share", ID: id, U: c.U.Marshal()}, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	return r.decodeShare(&resp)
}

func (r *Recombiner) decodeShare(resp *response) (*core.DecryptionShare, error) {
	// Every component of the response comes from a possibly-misbehaving
	// player: GT elements get the order-q membership check, the proof point
	// the subgroup check, and the challenge the F_q range check, before any
	// of them enters verification arithmetic.
	pp := r.params.Public.Pairing
	g, err := wire.UnmarshalGT(pp, resp.G)
	if err != nil {
		return nil, fmt.Errorf("share value: %w", err)
	}
	if resp.Proof == nil {
		return nil, errors.New("cluster: response missing proof")
	}
	w1, err := wire.UnmarshalGT(pp, resp.Proof.W1)
	if err != nil {
		return nil, fmt.Errorf("proof w1: %w", err)
	}
	w2, err := wire.UnmarshalGT(pp, resp.Proof.W2)
	if err != nil {
		return nil, fmt.Errorf("proof w2: %w", err)
	}
	v, err := wire.UnmarshalG1(pp.Curve(), resp.Proof.V)
	if err != nil {
		return nil, fmt.Errorf("proof v: %w", err)
	}
	e, err := wire.UnmarshalScalar(resp.Proof.E, pp.Q())
	if err != nil {
		return nil, fmt.Errorf("proof e: %w", err)
	}
	return &core.DecryptionShare{
		Index: resp.Index,
		G:     g,
		Proof: &core.ShareProof{
			W1: w1,
			W2: w2,
			E:  e,
			V:  v,
		},
	}, nil
}

// wireWrite and wireRead expose the framing to the package's tests.
func wireWrite(conn net.Conn, v any) (int, error) { return wire.WriteFrame(conn, v) }
func wireRead(conn net.Conn, v any) (int, error)  { return wire.ReadFrame(conn, v) }
