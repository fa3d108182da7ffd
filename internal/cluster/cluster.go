// Package cluster is the network embedding of the paper's threshold IBE
// (Section 3): each of the n players runs a PlayerServer holding its
// identity-key shares, and a Recombiner asks t of them for their decryption
// shares of a ciphertext, verifies the robustness proofs that come back,
// and recombines — going to the other n − t players, once and all together,
// only when one of the first t fails. Unreachable and byzantine players are
// tolerated exactly as the paper's recombiner ("picks t acceptable shares")
// is meant to.
//
// The package owns only what is threshold-specific: which players are
// asked, the quorum/reject bookkeeping and the recombination; which shares
// are acceptable is core's rule (ThresholdParams.AcceptableShares).
// Shares travel as the threshold_share op of internal/sem: a player is a
// sem.Server with the threshold backend, the recombiner holds one sem.Pool
// per player.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pairing"
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

	// ErrBadCiphertext is returned when a ciphertext's U is not a point of
	// G1: no proof can verify against it, and that is nobody's lie.
	ErrBadCiphertext = errors.New("cluster: ciphertext point U is not in G1")
)

// PlayerServer is one decryption server of the cluster: the player's key
// shares (Install, SetMisbehaviour — see core.ThresholdPlayer) served by a
// sem.Server over the player's own revocation registry, so the revoke,
// unrevoke, status and list ops it serves act on the registry every share
// is checked against. Safe for concurrent use.
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
	player, err := core.NewThresholdPlayer(params, index, core.NewRegistry())
	if err != nil {
		return nil, err
	}
	return &PlayerServer{ThresholdPlayer: player, params: params}, nil
}

// Instrument exports the player's serving metrics through reg: the sem_*
// series (op="threshold_share" counts and times the share-with-proof
// computation); next to them the player's Miller-program cache as the
// cache="player_pairers" series of the lru_* families (lru_hits_total,
// lru_misses_total, lru_evictions_total, lru_rejected_total, lru_entries — a
// share request that misses pays one program build, which
// pairing_fixed_programs_total counts, unless the full cache refused the
// identity a program, which lru_rejected_total counts);
// and the curve kernel counters — curve_hash_to_point_total,
// curve_cofactor_clears_total and curve_subgroup_checks_total all staying
// flat while share requests climb is the visible form of "per-identity
// constants are computed at Install, and U is only an evaluation point".
// Call before Serve.
func (p *PlayerServer) Instrument(reg *obs.Registry) { p.metrics = reg }

// server returns the sem.Server behind the player, built on the first Serve
// or Close so that Instrument can come before it.
func (p *PlayerServer) server() (*sem.Server, error) {
	p.once.Do(func() {
		p.srv, p.err = sem.NewServer(sem.Config{
			Registry:  p.Registry(),
			Threshold: p.ThresholdPlayer,
			Pairing:   p.params.Public.Pairing,
			Metrics:   p.metrics,
		})
	})
	return p.srv, p.err
}

// Serve answers share requests on ln until Close. A player whose server
// cannot be built closes ln and returns why.
func (p *PlayerServer) Serve(ln net.Listener) error {
	srv, err := p.server()
	if err != nil {
		_ = ln.Close() // nobody will accept on it; dials must fail, not hang
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

	// next is the rotation: decryption number k starts its choice of
	// players at player (k mod n) + 1, so each serves t/n of the traffic. A
	// new recombiner's first decryption starts at player 1.
	next atomic.Uint64
	// failedAt[i-1] is when player i was last rejected (UnixNano; 0 = never).
	// For timeout afterwards the player is asked only in a second round.
	failedAt []atomic.Int64

	// dial, when set, replaces the pools' TCP dial (sem.PoolConfig.Dial):
	// the tests run a cluster on an in-memory network.
	dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// playerConns is the pool size per player. One multiplexed connection
// carries every concurrent decryption's request (merged into shared
// frames), and with no second connection to go stale beside it, the pool's
// one replay after a transport failure always lands on a fresh dial — a
// restarted player costs no rejected share.
const playerConns = 1

// recombinerMetrics instruments the decryption path: where a threshold
// decryption actually spends its time (per-shareholder fetch latency, the
// wait for a round of fetches that bounds the network phase, the proof
// check that follows it), how many players it had to ask, which of them are
// feeding the recombiner garbage, and how often that forces the
// share-by-share identification pass or a second round. The connections'
// own series are the pools' sempool_* and semclient_*.
type recombinerMetrics struct {
	fetch       []*obs.Histogram // cluster_fetch_seconds{player=...}, index i-1
	quorumWait  *obs.Histogram   // cluster_quorum_wait_seconds
	verify      *obs.Histogram   // cluster_verify_seconds
	fallbacks   *obs.Counter     // cluster_verify_fallbacks_total
	verifyFail  *obs.Counter     // cluster_verify_failures_total
	decrypts    *obs.Counter     // cluster_decrypts_total
	asked       *obs.Counter     // cluster_players_asked_total
	escalations *obs.Counter     // cluster_escalations_total
	rejected    *obs.Counter     // cluster_rejected_shares_total
}

// NewRecombiner binds a recombiner to the cluster topology: addrs[i-1] is
// player i's address ("" = not deployed). timeout bounds each dial and
// each wait for a player's answer; a player that fails in transport is
// retried once on a fresh connection, so an unresponsive one holds a round
// of a decryption for at most twice the timeout before it is rejected — and
// for timeout after any rejection it is not among the players asked first.
func NewRecombiner(params *core.ThresholdParams, addrs []string, timeout time.Duration) (*Recombiner, error) {
	if len(addrs) != params.N {
		return nil, fmt.Errorf("cluster: %d addresses for n=%d players", len(addrs), params.N)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	r := &Recombiner{
		params: params, addrs: addrs, timeout: timeout,
		pools: make([]*sem.Pool, params.N), failedAt: make([]atomic.Int64, params.N),
	}
	r.Instrument(nil)
	return r, nil
}

// Instrument registers the recombiner's series with reg: one
// cluster_fetch_seconds histogram per player (request, the player's
// share-with-proof computation, response decoding and validation; only
// players that were asked are observed), cluster_quorum_wait_seconds (one
// observation per round: the time until every player asked in it resolved
// — t players when nobody fails, not n), cluster_verify_seconds (the proof
// check of one ciphertext's shares from one round, including any
// identification pass), cluster_players_asked_total (shares requested:
// players asked × ciphertexts, so ÷ cluster_decrypts_total is t while
// everyone is honest), cluster_escalations_total (ciphertexts whose first t
// players did not yield t acceptable shares, so the rest were asked),
// cluster_verify_fallbacks_total (checks whose one equation failed, so
// every share in it was verified singly — a cluster being made to pay that
// shows here), cluster_verify_failures_total (players whose proofs
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
				Size: playerConns, DialTimeout: r.timeout, OpTimeout: r.timeout, Dial: r.dial, Metrics: reg,
			})
		}
	}
	m := &recombinerMetrics{
		fetch:       make([]*obs.Histogram, r.params.N),
		quorumWait:  reg.Histogram("cluster_quorum_wait_seconds", "time from a round's fan-out until every player asked in it resolved"),
		verify:      reg.Histogram("cluster_verify_seconds", "proof check of one ciphertext's shares from one round: the batched equation plus, when it fails, the share-by-share pass"),
		fallbacks:   reg.Counter("cluster_verify_fallbacks_total", "proof checks whose batched equation failed and were repeated share by share"),
		verifyFail:  reg.Counter("cluster_verify_failures_total", "players rejected by the NIZK robustness check"),
		decrypts:    reg.Counter("cluster_decrypts_total", "threshold decryptions attempted"),
		asked:       reg.Counter("cluster_players_asked_total", "shares requested (players asked x ciphertexts); t per decryption while nobody fails"),
		escalations: reg.Counter("cluster_escalations_total", "threshold decryptions that had to ask the players beyond the first t"),
		rejected:    reg.Counter("cluster_rejected_shares_total", "players asked and turned away (unreachable, refusing, malformed or failing verification)"),
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

// Decrypt asks t players for their shares of the ciphertext, checks the
// proofs, and recombines; the remaining players are asked only if the first
// t do not yield t acceptable shares. It returns the plaintext together
// with the indices of the players that were asked and turned away. It is
// the single-ciphertext case of DecryptBatch.
func (r *Recombiner) Decrypt(id string, c *bf.BasicCiphertext) (msg []byte, rejected []int, err error) {
	msgs, rejected, err := r.DecryptBatch(id, []*bf.BasicCiphertext{c})
	if err != nil {
		return nil, rejected, err
	}
	return msgs[0], rejected, nil
}

// DecryptBatch decrypts k ciphertexts for one identity in at most two
// rounds. Round one asks t players — the rotation's next t, players
// rejected within the last timeout coming last — for their shares of all k
// ciphertexts in a single round trip each, and checks every returned
// share's proof; if t of them survive, their shares are recombined and no
// one else is contacted. Otherwise round two asks every remaining player at
// once, checks those the same way, and the decryption succeeds iff t
// players survived in total (ErrNotEnoughShares otherwise; when every
// player asked refused with the same typed reason — it holds no share for
// id, or id is revoked there — the error also wraps ErrUnknownIdentity or
// core.ErrRevoked). All-at-once rather than one more player at a time: the
// worst case is two rounds of at most 2·timeout each, not n − t + 1.
//
// It returns the plaintexts in request order together with the indices, in
// ascending order, of the players that were asked and turned away. A player
// is rejected wholesale — unreachable, refusing, malformed response, or any
// share failing decode or NIZK verification — because a peer caught lying
// once is not trustworthy for its other shares either. Each rejected player
// is also asked last for timeout, except one that refused with a typed
// reason: it answered honestly. A player that was not asked is neither used
// nor rejected.
//
// Proof checking starts once every fetch of a round has resolved: that
// round's shares of one ciphertext are verified together (core's
// AcceptableShares — one pairing equation for all of them, share by share
// only to name a liar), and the k ciphertexts of a batch are checked in
// parallel. No share reaches Recombine that such a check did not cover.
func (r *Recombiner) DecryptBatch(id string, cs []*bf.BasicCiphertext) (msgs [][]byte, rejected []int, err error) {
	if len(cs) == 0 {
		return nil, nil, nil
	}
	if r.closed.Load() {
		return nil, nil, sem.ErrClientClosed
	}
	// A malformed body costs no player a round, and neither does a U whose
	// abscissa no player reads: O, or (0, 0), which has no ring to pair in
	// (curve.EvalXOf). Neither is in G1.
	for j, c := range cs {
		if err := r.params.Public.CheckBasic(c); err != nil {
			return nil, nil, fmt.Errorf("cluster: ciphertext %d: %w", j, err)
		}
		if curve.EvalXOf(c.U).IsInfinity() {
			return nil, nil, fmt.Errorf("%w (ciphertext %d)", ErrBadCiphertext, j)
		}
	}
	r.met.decrypts.Add(uint64(len(cs)))
	ids, us := make([]string, len(cs)), make([]*curve.Point, len(cs))
	for j, c := range cs {
		ids[j], us[j] = id, c.U
	}
	// Q_ID is the same for every proof: hash the identity once.
	qid, err := bf.HashIdentityArg(r.params.Public.Pairing, id)
	if err != nil {
		return nil, nil, err
	}

	// valid holds the verified columns (a player's len(cs) shares), in the
	// order they were accepted; reasons the typed refusal of each rejected
	// player (nil for any other rejection).
	valid := make([][]*core.DecryptionShare, 0, r.params.T)
	var reasons []error
	waiting := playerOrder(r)
	for round := 1; len(valid) < r.params.T && len(waiting) > 0; round++ {
		ask := waiting
		if round == 1 {
			ask = waiting[:min(r.params.T, len(waiting))]
		} else {
			r.met.escalations.Add(uint64(len(cs)))
		}
		waiting = waiting[len(ask):]
		r.met.asked.Add(uint64(len(ask) * len(cs)))
		columns, refusals := r.fetchRound(ask, ids, us)
		if err := r.verifyRound(qid, us, columns); err != nil {
			sort.Ints(rejected)
			return nil, rejected, err
		}
		for _, i := range ask {
			if columns[i] != nil {
				valid = append(valid, columns[i])
				continue
			}
			rejected = append(rejected, i+1)
			reasons = append(reasons, refusals[i])
			r.met.rejected.Inc()
			if refusals[i] == nil {
				r.failedAt[i].Store(time.Now().UnixNano())
			}
		}
	}
	sort.Ints(rejected)
	if len(valid) < r.params.T {
		if reasons = slices.Compact(reasons); len(valid) == 0 && len(reasons) == 1 && reasons[0] != nil {
			return nil, rejected, fmt.Errorf("%w: %d of %d: %w", ErrNotEnoughShares, len(valid), r.params.N, reasons[0])
		}
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

// playerOrder returns r's deployed players (as indices into pools) in the
// order the next decryption prefers them: the rotation's cyclic order from
// its next start, with the players rejected within the last timeout moved —
// in that same order — to the end. (A function, not a method: cryptolint
// treats the slice results of methods on anything that holds deployment
// parameters as secret, and these indices — public — go on to index
// slices.)
func playerOrder(r *Recombiner) []int {
	n := len(r.pools)
	start := int((r.next.Add(1) - 1) % uint64(n))
	now := time.Now().UnixNano()
	order, demoted := make([]int, 0, n), make([]int, 0, n)
	for k := range n {
		i := (start + k) % n
		switch at := r.failedAt[i].Load(); {
		case r.pools[i] == nil:
		case at != 0 && now-at < int64(r.timeout):
			demoted = append(demoted, i)
		default:
			order = append(order, i)
		}
	}
	return append(order, demoted...)
}

// fetchRound asks the given players in parallel for their shares of every
// ciphertext, one batched request each, and once every fetch has resolved
// decodes all the round's proof points V in one call (sem.DecodeShares: one
// walk of the square-root exponent on the lane engine for up to eight).
// columns[i-1] is player i's column, nil when the player was not asked, is
// unreachable, or any of its answers is refused or malformed, V included;
// refusals[i-1] is then the typed sentinel — ErrUnknownIdentity or
// core.ErrRevoked — when the player answered and every item it failed it
// refused with that sentinel, nil otherwise. Each share is stamped with the
// slot that was dialed, not with anything the player says about itself, so
// a share relayed from another player is checked against the wrong
// verification key and fails.
func (r *Recombiner) fetchRound(ask []int, ids []string, us []*curve.Point) (columns [][]*core.DecryptionShare, refusals []error) {
	columns, refusals = make([][]*core.DecryptionShare, r.params.N), make([]error, r.params.N)
	replies := make([][]sem.ShareReply, r.params.N)
	start := time.Now()
	var wg sync.WaitGroup
	for _, i := range ask {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetchStart := time.Now()
			got, itemErrs, err := r.pools[i].ThresholdShareBatch(ids, us)
			switch {
			case err != nil:
			case errors.Join(itemErrs...) == nil:
				replies[i] = got
			default:
				for _, why := range []error{ErrUnknownIdentity, core.ErrRevoked} {
					if !slices.ContainsFunc(itemErrs, func(e error) bool { return e != nil && !errors.Is(e, why) }) {
						refusals[i] = why
					}
				}
			}
			r.met.fetch[i].Observe(time.Since(fetchStart))
		}()
	}
	wg.Wait()
	r.met.quorumWait.Observe(time.Since(start))

	round := make([]sem.ShareReply, 0, len(ask)*len(us))
	for _, i := range ask {
		round = append(round, replies[i]...)
	}
	errs := sem.DecodeShares(r.params.Public.Pairing.Curve(), round)
	shares := make([]*core.DecryptionShare, len(round))
	for _, i := range ask {
		if replies[i] == nil {
			continue
		}
		col, colErrs := shares[:len(us):len(us)], errs[:len(us)]
		shares, errs = shares[len(us):], errs[len(us):]
		if errors.Join(colErrs...) != nil {
			continue
		}
		for j, reply := range replies[i] {
			reply.Share.Index = i + 1
			col[j] = reply.Share
		}
		columns[i] = col
	}
	return columns, refusals
}

// verifyRound checks one round's columns ciphertext by ciphertext and nils
// the column of every player any of whose shares failed its proof — unless
// the proofs failed against a U that is not in G1, which is
// ErrBadCiphertext and leaves the columns alone.
func (r *Recombiner) verifyRound(qid *pairing.HashArg, us []*curve.Point, columns [][]*core.DecryptionShare) error {
	// liars[j] are the players whose share of ciphertext j failed its proof.
	liars := make([][]int, len(us))
	parallel.Fan(len(us), func(j int) {
		verifyStart := time.Now()
		row := make([]*core.DecryptionShare, 0, len(columns))
		for _, col := range columns {
			if col != nil {
				row = append(row, col[j])
			}
		}
		_, liars[j] = r.params.AcceptableShares(qid, us[j], row)
		r.met.verify.Observe(time.Since(verifyStart))
	})
	for j, row := range liars {
		if len(row) > 0 && us[j].Validate() != nil {
			return fmt.Errorf("%w (ciphertext %d)", ErrBadCiphertext, j)
		}
	}
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
	return nil
}
