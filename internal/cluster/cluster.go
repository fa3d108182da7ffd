// Package cluster is the network embedding of the paper's threshold IBE
// (Section 3): each of the n players runs a PlayerServer holding its
// identity-key shares, and a Recombiner fans a ciphertext out to the
// players, verifies the returned decryption shares' robustness proofs, and
// recombines any t acceptable ones — tolerating unreachable and byzantine
// players exactly as the paper's recombiner is meant to.
//
// The package owns only what is threshold-specific: the fan-out to n
// players, the quorum/reject bookkeeping and the recombination; which
// shares are acceptable is core's rule (ThresholdParams.AcceptableShares).
// Shares travel as the threshold_share op of internal/sem: a player is a
// sem.Server with the threshold backend, the recombiner holds one sem.Pool
// per player.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sem"
)

var (
	// ErrUnknownIdentity is returned when a player holds no key share for
	// the identity. It is core's sentinel, which the share protocol carries
	// as a typed status, so errors.Is matches it on both ends of the wire.
	ErrUnknownIdentity = core.ErrUnknownIdentity

	// ErrNotEnoughShares is returned when fewer than t usable shares could
	// be collected.
	ErrNotEnoughShares = errors.New("cluster: not enough valid shares")
)

// PlayerServer is one decryption server of the cluster: the player's key
// shares (Install, SetMisbehaviour — see core.ThresholdPlayer) served by a
// sem.Server. Safe for concurrent use.
type PlayerServer struct {
	*core.ThresholdPlayer
	params  *core.ThresholdParams
	metrics *obs.Registry

	once sync.Once
	srv  *sem.Server
	err  error
}

// NewPlayerServer creates player index's server.
func NewPlayerServer(params *core.ThresholdParams, index int) (*PlayerServer, error) {
	player, err := core.NewThresholdPlayer(params, index)
	if err != nil {
		return nil, err
	}
	return &PlayerServer{ThresholdPlayer: player, params: params}, nil
}

// Instrument exports the player's serving metrics through reg: the sem_*
// series (op="threshold_share" counts and times the share-with-proof
// computation) and the curve kernel counters — curve_hash_to_point_total
// staying flat while share requests climb is the visible form of
// "per-identity constants are computed at Install". Call before Serve.
func (p *PlayerServer) Instrument(reg *obs.Registry) { p.metrics = reg }

// server returns the sem.Server behind the player, built on the first Serve
// or Close so that Instrument can come before it.
func (p *PlayerServer) server() (*sem.Server, error) {
	p.once.Do(func() {
		p.srv, p.err = sem.NewServer(sem.Config{
			Registry:  core.NewRegistry(),
			Threshold: p.ThresholdPlayer,
			Pairing:   p.params.Public.Pairing,
			Metrics:   p.metrics,
		})
	})
	return p.srv, p.err
}

// Serve answers share requests on ln until Close.
func (p *PlayerServer) Serve(ln net.Listener) error {
	srv, err := p.server()
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}

// Close stops the server and drains its handlers. A later Serve fails.
func (p *PlayerServer) Close() error {
	srv, err := p.server()
	if err != nil {
		return err
	}
	return srv.Close()
}

// Recombiner is the designated-player client: it collects, verifies and
// combines decryption shares from the player servers, over one sem.Pool
// per deployed player — persistent multiplexed connections, so a steady
// stream of threshold decryptions pays the TCP handshake once per player
// and concurrent decryptions share frames.
type Recombiner struct {
	params *core.ThresholdParams
	// addrs[i-1] is player i's address ("" = player not deployed), and
	// pools[i-1] the pool that reaches it (nil likewise).
	addrs   []string
	pools   []*sem.Pool
	timeout time.Duration
	met     *recombinerMetrics
	closed  atomic.Bool
}

// playerConns is the pool size per player. One multiplexed connection
// carries every concurrent decryption's request (merged into shared
// frames), and with no second connection to go stale beside it, the pool's
// one replay after a transport failure always lands on a fresh dial — a
// restarted player costs no rejected share.
const playerConns = 1

// recombinerMetrics instruments the decryption path: where a threshold
// decryption actually spends its time (per-shareholder fetch latency, the
// quorum wait that bounds the network phase, the proof check that follows
// it), which players are feeding the recombiner garbage, and how often that
// forces the share-by-share identification pass. The connections' own
// series are the pools' sempool_* and semclient_*.
type recombinerMetrics struct {
	fetch      []*obs.Histogram // cluster_fetch_seconds{player=...}, index i-1
	quorumWait *obs.Histogram   // cluster_quorum_wait_seconds
	verify     *obs.Histogram   // cluster_verify_seconds
	fallbacks  *obs.Counter     // cluster_verify_fallbacks_total
	verifyFail *obs.Counter     // cluster_verify_failures_total
	decrypts   *obs.Counter     // cluster_decrypts_total
	rejected   *obs.Counter     // cluster_rejected_shares_total
}

// NewRecombiner binds a recombiner to the cluster topology: addrs[i-1] is
// player i's address ("" = not deployed). timeout bounds each dial and
// each wait for a player's answer; a player that fails in transport is
// retried once on a fresh connection, so an unresponsive one holds a
// decryption for at most twice the timeout before it is rejected.
func NewRecombiner(params *core.ThresholdParams, addrs []string, timeout time.Duration) (*Recombiner, error) {
	if len(addrs) != params.N {
		return nil, fmt.Errorf("cluster: %d addresses for n=%d players", len(addrs), params.N)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	r := &Recombiner{params: params, addrs: addrs, timeout: timeout, pools: make([]*sem.Pool, params.N)}
	r.Instrument(nil)
	return r, nil
}

// Instrument registers the recombiner's series with reg: one
// cluster_fetch_seconds histogram per player (request, the player's
// share-with-proof computation, response decoding and validation), the
// quorum wait histogram (time until every player resolved — the paper's
// recombiner cannot finish earlier), cluster_verify_seconds (the proof
// check of one ciphertext's shares, including any identification pass),
// cluster_verify_fallbacks_total (ciphertexts whose one-equation check
// failed, so every share was verified singly — a cluster being made to pay
// that shows here), cluster_verify_failures_total (players whose proofs
// failed), and the player pools' sempool_* / semclient_* series — which is
// why it builds the pools (they dial on first use). A nil reg keeps every
// series live but unexported. Call before the first decryption; safe to
// skip entirely.
func (r *Recombiner) Instrument(reg *obs.Registry) {
	for i, addr := range r.addrs {
		if r.pools[i] != nil {
			_ = r.pools[i].Close()
		}
		if addr != "" { //cryptolint:public (the player's network address, not key material)
			r.pools[i] = sem.NewPool(addr, r.params.Public.Pairing, sem.PoolConfig{
				Size: playerConns, DialTimeout: r.timeout, OpTimeout: r.timeout, Metrics: reg,
			})
		}
	}
	m := &recombinerMetrics{
		fetch:      make([]*obs.Histogram, r.params.N),
		quorumWait: reg.Histogram("cluster_quorum_wait_seconds", "time from fan-out until all player fetches resolved"),
		verify:     reg.Histogram("cluster_verify_seconds", "proof check of one ciphertext's shares: the batched equation plus, when it fails, the share-by-share pass"),
		fallbacks:  reg.Counter("cluster_verify_fallbacks_total", "ciphertexts whose batched proof check failed and were verified share by share"),
		verifyFail: reg.Counter("cluster_verify_failures_total", "players rejected by the NIZK robustness check"),
		decrypts:   reg.Counter("cluster_decrypts_total", "threshold decryptions attempted"),
		rejected:   reg.Counter("cluster_rejected_shares_total", "player responses rejected (unreachable, malformed or failing verification)"),
	}
	for i := range m.fetch {
		m.fetch[i] = reg.Histogram("cluster_fetch_seconds", "per-player share fetch time (request, share computation, response validation)",
			obs.Label{Key: "player", Value: strconv.Itoa(i + 1)})
	}
	r.met = m
}

// Close releases the player connections. It is terminal: decryptions
// afterwards fail with sem.ErrClientClosed.
func (r *Recombiner) Close() error {
	r.closed.Store(true)
	for _, p := range r.pools {
		if p != nil {
			_ = p.Close()
		}
	}
	return nil
}

// Decrypt fans the ciphertext out to every reachable player, checks the
// returned shares' proofs, and recombines t acceptable shares. It returns
// the plaintext together with the indices of players whose responses were
// rejected (unreachable, malformed, or failing the NIZK check). It is the
// single-ciphertext case of DecryptBatch.
func (r *Recombiner) Decrypt(id string, c *bf.BasicCiphertext) (msg []byte, rejected []int, err error) {
	msgs, rejected, err := r.DecryptBatch(id, []*bf.BasicCiphertext{c})
	if err != nil {
		return nil, rejected, err
	}
	return msgs[0], rejected, nil
}

// DecryptBatch fans k ciphertexts for one identity out to every reachable
// player in a single round trip per player, checks every returned share's
// proof, and recombines each ciphertext from t acceptable shares. It
// returns the plaintexts in request order together with the indices of
// rejected players. A player is rejected wholesale — unreachable,
// malformed response, or any share failing decode or NIZK verification —
// because a peer caught lying once is not trustworthy for its other
// shares either.
//
// Proof checking starts once every fetch has resolved: the shares of one
// ciphertext are verified together (core's AcceptableShares — one pairing
// equation for all of them, share by share only to name a liar), and the k
// ciphertexts of a batch are checked in parallel.
func (r *Recombiner) DecryptBatch(id string, cs []*bf.BasicCiphertext) (msgs [][]byte, rejected []int, err error) {
	if len(cs) == 0 {
		return nil, nil, nil
	}
	if r.closed.Load() {
		return nil, nil, sem.ErrClientClosed
	}
	r.met.decrypts.Add(uint64(len(cs)))
	ids, us := make([]string, len(cs)), make([]*curve.Point, len(cs))
	for j, c := range cs {
		ids[j], us[j] = id, c.U
	}
	// Q_ID is the same for all n·k proofs: hash the identity once.
	qid, err := bf.HashIdentity(r.params.Public.Pairing, id)
	if err != nil {
		return nil, nil, err
	}

	// columns[i-1] is player i's full column of len(cs) shares, nil when the
	// player is rejected.
	columns := make([][]*core.DecryptionShare, r.params.N)
	start := time.Now()
	var wg sync.WaitGroup
	for i, pool := range r.pools {
		if pool == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetchStart := time.Now()
			columns[i] = fetchColumn(pool, i+1, ids, us)
			r.met.fetch[i].Observe(time.Since(fetchStart))
		}()
	}
	wg.Wait()
	r.met.quorumWait.Observe(time.Since(start))

	// liars[j] are the players whose share of ciphertext j failed its proof.
	liars := make([][]int, len(cs))
	parallel.Fan(len(cs), func(j int) {
		verifyStart := time.Now()
		row := make([]*core.DecryptionShare, 0, r.params.N)
		for _, col := range columns {
			if col != nil {
				row = append(row, col[j])
			}
		}
		_, liars[j] = r.params.AcceptableShares(qid, us[j], row)
		r.met.verify.Observe(time.Since(verifyStart))
	})
	for _, row := range liars {
		if len(row) > 0 {
			r.met.fallbacks.Inc()
		}
		for _, i := range row {
			if columns[i-1] != nil {
				columns[i-1] = nil
				r.met.verifyFail.Inc()
			}
		}
	}

	valid := make([][]*core.DecryptionShare, 0, r.params.N)
	for i, col := range columns {
		if col == nil {
			rejected = append(rejected, i+1)
			r.met.rejected.Inc()
			continue
		}
		valid = append(valid, col)
	}
	if len(valid) < r.params.T {
		return nil, rejected, fmt.Errorf("%w: %d of %d", ErrNotEnoughShares, len(valid), r.params.N)
	}

	msgs = make([][]byte, len(cs))
	quorum := make([]*core.DecryptionShare, r.params.T)
	for j := range cs {
		for p := range quorum {
			quorum[p] = valid[p][j]
		}
		msgs[j], err = r.params.Recombine(quorum, cs[j])
		if err != nil {
			return nil, rejected, fmt.Errorf("cluster: recombining ciphertext %d: %w", j, err)
		}
	}
	return msgs, rejected, nil
}

// fetchColumn asks player index for its share of every ciphertext in one
// batched request. Each share is stamped with the slot that was dialed, not
// with anything the player says about itself, so a share relayed from
// another player is checked against the wrong verification key and fails.
// It returns nil when the player is unreachable or any of its answers is
// refused or malformed.
func fetchColumn(pool *sem.Pool, index int, ids []string, us []*curve.Point) []*core.DecryptionShare {
	shares, errs, err := pool.ThresholdShareBatch(ids, us)
	if err != nil || errors.Join(errs...) != nil {
		return nil
	}
	for _, share := range shares {
		share.Index = index
	}
	return shares
}
