package sem

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/wire"
)

// Server is the SEM daemon. It serves whichever mediated schemes it was
// configured with; requests for an unconfigured scheme are refused as
// unsupported. All schemes share one revocation registry: a single Revoke
// removes every capability of the identity at once.
//
// Requests are executed by a bounded worker pool shared across connections,
// so token issuance — a pairing per request — saturates the configured
// parallelism even when clients arrive on few connections, and a flood of
// connections cannot spawn an unbounded number of pairing computations.
// Each connection pipelines: the reader keeps accepting frames while earlier
// requests are still in flight, and a per-connection writer puts responses
// back on the wire in request order.
type Server struct {
	cfg Config
	met *serverMetrics

	jobs        chan *batchJob
	workersOnce sync.Once
	workerWG    sync.WaitGroup
	// fanSlots holds the Workers−1 permits for widening a batch fan beyond
	// the worker's own goroutine (see Server.acquireFanWidth), so
	// concurrent batches share — not multiply — the configured parallelism.
	fanSlots chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// pipelineDepth bounds the number of in-flight frames per connection;
// beyond it the connection's reader stalls, back-pressuring the client.
const pipelineDepth = 64

// Config wires the SEM's scheme backends. Registry is required; the scheme
// backends are optional but must share that registry.
type Config struct {
	Registry *core.Registry
	IBE      *core.IBESEM
	GDH      *core.GDHSEM
	RSA      *core.ExpSEM
	GM       *core.ExpSEM
	// Threshold, when set, makes the daemon one decryption server of the
	// paper's threshold IBE: it serves threshold_share from the player's
	// installed key shares. Needs Pairing.
	Threshold *core.ThresholdPlayer
	// Journal, when set, persists revocation mutations (its Registry must
	// be the same one the backends share).
	Journal *core.Journal
	// Repl, when set, serves the repl.append/repl.snapshot/repl.status ops
	// so this daemon can act as a replication follower. Its journal must be
	// Config.Journal.
	Repl *repl.Follower
	// Leader, when set, routes revoke/unrevoke through the replication
	// leader (which appends to the journal and streams to the fleet). Its
	// journal must be Config.Journal.
	Leader *repl.Leader
	// Pairing is required when IBE, GDH or Threshold is configured (to parse
	// points).
	Pairing *pairing.Params
	// Logf receives connection-level errors; nil silences them.
	Logf func(format string, args ...any)
	// Workers is the size of the request-execution pool; values ≤ 0 default
	// to runtime.GOMAXPROCS(0). One worker serializes all requests (still
	// across many pipelined connections); more workers add CPU parallelism.
	Workers int
	// IOTimeout bounds each frame read (so it doubles as the per-connection
	// idle limit) and each response write, protecting the daemon from hung
	// or glacial peers. 0 selects the default (2 minutes); negative
	// disables deadlines entirely.
	IOTimeout time.Duration
	// MaxFrame caps a single protocol frame (announced to clients in the
	// negotiation ack). 0 selects DefaultMaxFrame (1 MiB); the ceiling is
	// wire.V2MaxFrame. Size it to MaxBatch times the largest per-item
	// payload the deployment serves.
	MaxFrame int
	// MaxBatch caps the number of items in one frame. 0 selects
	// DefaultMaxBatch (64); the hard ceiling is wire.V2MaxBatch.
	MaxBatch int
	// AllowRegister enables the register_ibe/register_gdh enrollment ops,
	// letting a PKG/TA (or load generator) install SEM key halves over the
	// wire. Off by default: enrollment is normally done at construction
	// time, and the op is as unauthenticated as revoke.
	AllowRegister bool
	// Metrics, when set, registers the server's instrumentation (request
	// counts, error mix, service-time histograms, queue/in-flight/
	// connection gauges, pairer-cache stats) with the registry. Nil keeps
	// the server uninstrumented at zero additional cost on the wire path.
	Metrics *obs.Registry
}

// defaultIOTimeout is the per-frame read/write deadline applied when
// Config.IOTimeout is zero.
const defaultIOTimeout = 2 * time.Minute

// NewServer validates the configuration and returns an unstarted server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("sem: config needs a Registry")
	}
	if (cfg.IBE != nil || cfg.GDH != nil || cfg.Threshold != nil) && cfg.Pairing == nil {
		return nil, errors.New("sem: pairing params required for IBE/GDH/threshold backends")
	}
	if cfg.Repl != nil && cfg.Repl.Journal() != cfg.Journal { //cryptolint:public (pointer-identity wiring check on config; no key material)
		return nil, errors.New("sem: Repl follower must wrap Config.Journal")
	}
	if cfg.Leader != nil && cfg.Leader.Journal() != cfg.Journal { //cryptolint:public (pointer-identity wiring check on config; no key material)
		return nil, errors.New("sem: replication Leader must own Config.Journal")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxFrame < 1024 || cfg.MaxFrame > wire.V2MaxFrame {
		return nil, fmt.Errorf("sem: MaxFrame %d outside [1024, %d]", cfg.MaxFrame, wire.V2MaxFrame)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 || cfg.MaxBatch > wire.V2MaxBatch {
		return nil, fmt.Errorf("sem: MaxBatch %d outside [1, %d]", cfg.MaxBatch, wire.V2MaxBatch)
	}
	s := &Server{
		cfg:      cfg,
		jobs:     make(chan *batchJob, cfg.Workers),
		conns:    make(map[net.Conn]struct{}),
		fanSlots: make(chan struct{}, cfg.Workers-1),
	}
	for i := 0; i < cfg.Workers-1; i++ {
		s.fanSlots <- struct{}{}
	}
	s.met = newServerMetrics(cfg.Metrics, s)
	return s, nil
}

// Workers reports the size of the request-execution pool.
func (s *Server) Workers() int { return s.cfg.Workers }

// startWorkers launches the execution pool (once, from Serve). Workers exit
// when the jobs channel is closed by Close.
func (s *Server) startWorkers() {
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer s.workerWG.Done()
			for j := range s.jobs {
				s.met.inflight.Inc()
				s.executeBatch(j)
				s.met.inflight.Dec()
				j.ready <- struct{}{}
			}
		}()
	}
}

// Serve accepts connections on ln until Close is called. It blocks; run it
// in a goroutine when the caller needs to continue. On a server that is
// already closed it closes ln and returns an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // nobody will accept on it; dials must fail, not hang
		return errors.New("sem: server is closed")
	}
	s.ln = ln
	// Under the lock, so a concurrent Close either saw no server to stop or
	// finds the pool fully started — never half-way through.
	s.workersOnce.Do(s.startWorkers)
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("sem accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sem listen: %w", err)
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes live connections, waits for handlers to
// drain and then stops the worker pool.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	// All connection handlers have drained, so nothing can submit another
	// job; closing the channel releases the workers.
	close(s.jobs)
	s.workerWG.Wait()
	return err
}

// handleConn runs the handshake and then the frame loop. The protocol has
// one opener: a connection whose first bytes are not the "SEM2" preamble
// is logged and closed without an answer.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	if s.cfg.IOTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(s.cfg.IOTimeout))
	}
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return // connected and left without a byte; not worth logging
	}
	if first[0] != wire.V2MagicByte {
		s.cfg.Logf("sem: %v opened with byte %#x, not the SEM2 preamble; closing", conn.RemoteAddr(), first[0])
		return
	}
	// The proposed version is not negotiated on: the ack names the one
	// version this server speaks and the client decides whether it can.
	if _, err := wire.ReadV2HelloTail(conn); err != nil {
		s.cfg.Logf("sem: preamble from %v: %v", conn.RemoteAddr(), err)
		return
	}
	// Counted before the ack leaves: a client that holds the ack is in
	// sem_connections_total, whenever this goroutine runs next.
	s.met.connects.Inc()
	if err := wire.WriteV2Ack(conn, wire.V2Version, s.cfg.MaxBatch, s.cfg.MaxFrame); err != nil {
		s.cfg.Logf("sem: ack to %v: %v", conn.RemoteAddr(), err)
		return
	}
	s.serve(conn)
}

// batchJob is one in-flight frame. Each job owns its own frame decoder and
// encoder: decoded items alias the decoder's buffer, so with pipelining a
// shared decoder would be overwritten while earlier batches still execute.
// Jobs cycle through a per-connection free list, so a settled connection
// serves batches with no per-frame allocation in the framing layer. ready
// is buffered, so a worker never blocks on a slow (or dead) connection
// writer.
type batchJob struct {
	dec     wire.FrameDecoder
	enc     wire.FrameEncoder
	op      byte
	items   []wire.ReqItem
	results []wire.RespItem
	ready   chan struct{}
	// failed, when non-nil, short-circuits the writer with a single-item
	// error frame built by the reader (over-batch/over-frame refusals).
	failed []wire.RespItem
}

// serve is the frame loop of one connection: a reader that decodes frames
// into pooled jobs and submits each batch to the worker pool as one unit,
// and a writer that encodes and sends response frames in request order.
func (s *Server) serve(conn net.Conn) {
	free := make(chan *batchJob, pipelineDepth)
	pending := make(chan *batchJob, pipelineDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		for j := range pending {
			results := j.failed
			if results == nil {
				<-j.ready
				results = j.results
			}
			if broken {
				free <- j
				continue // keep draining so the reader never wedges
			}
			frame, err := j.enc.EncodeResponse(j.op, results, s.cfg.MaxFrame)
			if err != nil {
				// The batch's results exceed the frame cap (or the batch
				// grew past the wire ceiling) — the stream cannot carry
				// the response, so refuse it in one typed item instead.
				j.failed = j.failed[:0]
				j.failed = append(j.failed, wire.RespItem{
					Status: statusBadRequest,
					Data:   []byte("response exceeds the negotiated frame limit"),
				})
				frame, err = j.enc.EncodeResponse(j.op, j.failed, s.cfg.MaxFrame)
				if err != nil {
					s.cfg.Logf("sem: encode refusal: %v", err)
					broken = true
					_ = conn.Close()
					free <- j
					continue
				}
			}
			if s.cfg.IOTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
			}
			_, werr := conn.Write(frame)
			s.met.frameTx(len(frame))
			if werr != nil {
				s.cfg.Logf("sem: write frame to %v: %v", conn.RemoteAddr(), werr)
				broken = true
				_ = conn.Close() // unblock the reader
			}
			free <- j
		}
	}()

	created := 0
	for {
		var j *batchJob
		select {
		case j = <-free:
		default:
			if created < pipelineDepth {
				j = &batchJob{ready: make(chan struct{}, 1)}
				created++
			} else {
				j = <-free
			}
		}
		j.failed = nil

		if s.cfg.IOTimeout > 0 {
			// A per-frame read deadline: a peer that stops mid-frame (or
			// goes idle past the limit) releases the handler instead of
			// pinning it for the daemon's lifetime.
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
		}
		op, items, n, err := j.dec.ReadRequest(conn, s.cfg.MaxFrame, s.cfg.MaxBatch)
		s.met.frameRx(n)
		if err != nil {
			if errors.Is(err, wire.ErrBatchTooLarge) {
				// The frame was fully consumed — the stream is still
				// synchronized — but its batch breaks the negotiated
				// contract. Refuse it with a typed single-item response
				// (the op echo lets a pipelined client correlate it) and
				// keep serving.
				s.refuse(j, op, "batch exceeds the negotiated limit", pending)
				continue
			}
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The announced body was never read, so the stream cannot
				// be resynchronized: answer with a typed refusal, then
				// drop the connection.
				s.refuse(j, op, "frame exceeds the negotiated limit", pending)
			} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("sem: read frame from %v: %v", conn.RemoteAddr(), err)
			}
			break
		}
		s.met.batchSize.Observe(len(items))
		j.op, j.items = op, items
		pending <- j
		s.jobs <- j
	}
	close(pending)
	<-writerDone
}

// refuse queues a typed single-item bad-request response for a frame the
// reader rejected at the protocol layer.
func (s *Server) refuse(j *batchJob, op byte, msg string, pending chan *batchJob) {
	s.met.observe(op, statusBadRequest, 0)
	j.op = op
	j.failed = []wire.RespItem{{Status: statusBadRequest, Data: []byte(msg)}}
	pending <- j
}

// opTable is the protocol's dispatch table, indexed by op byte: the Op name
// (metric label) and the handler that turns one item into response data or
// an error statusFor classifies. A zero entry is an op byte nobody serves.
var opTable = [numOps]struct {
	name   Op
	handle func(s *Server, id string, payload []byte) ([]byte, error)
}{
	opIBEToken:     {OpIBEToken, (*Server).ibeToken},
	opGDHSign:      {OpGDHSign, (*Server).gdhSign},
	opRSADecrypt:   {OpRSADecrypt, (*Server).rsaDecrypt},
	opRSASign:      {OpRSASign, (*Server).rsaSign},
	opGMDecrypt:    {OpGMDecrypt, (*Server).gmDecrypt},
	opRevoke:       {OpRevoke, (*Server).revoke},
	opUnrevoke:     {OpUnrevoke, (*Server).unrevoke},
	opStatus:       {OpStatus, (*Server).status},
	opList:         {OpList, (*Server).list},
	opPing:         {OpPing, (*Server).ping},
	opRegisterIBE:  {OpRegisterIBE, (*Server).registerIBE},
	opRegisterGDH:  {OpRegisterGDH, (*Server).registerGDH},
	opReplAppend:   {OpReplAppend, (*Server).replAppend},
	opReplSnapshot: {OpReplSnapshot, (*Server).replSnapshot},
	opReplStatus:   {OpReplStatus, (*Server).replStatus},

	opThresholdShare: {OpThresholdShare, (*Server).thresholdShare},
}

// opName is the Op a byte stands for ("" for bytes outside the table).
func opName(op byte) Op {
	if int(op) >= len(opTable) {
		return ""
	}
	return opTable[op].name
}

// executeBatch runs every item of a batch through its op's handler in one
// pass, fanning across the configured parallelism, and stores the per-item
// results in request order. Executed on a worker-pool goroutine, so one
// batch occupies one queue slot no matter its size. Handlers never panic by
// contract; unexpected failures come back as errors.
func (s *Server) executeBatch(j *batchJob) {
	n := len(j.items)
	if cap(j.results) < n {
		j.results = make([]wire.RespItem, n)
	}
	j.results = j.results[:n]

	if opName(j.op) == "" {
		for i := range j.results {
			j.results[i] = wire.RespItem{Status: statusBadRequest, Data: []byte("unknown v2 op")}
		}
		return
	}
	handle := opTable[j.op].handle

	// Width derates with the batch so tiny batches stay inline, and with
	// the server's load: extra width beyond this worker's own goroutine is
	// borrowed from the shared fanSlots permits, so concurrent batch jobs
	// cannot multiply into Workers² crypto goroutines (the bounded-
	// parallelism invariant: at most 2·Workers−1 in flight, exactly
	// Workers at saturation, when every fan runs width 1 inline).
	width := s.acquireFanWidth(n)
	defer s.releaseFanWidth(width)
	parallel.FanChunks(width, func(lo, hi int) {
		chunkLo, chunkHi := lo*n/width, hi*n/width
		for i := chunkLo; i < chunkHi; i++ {
			item := j.items[i]
			start := time.Now()
			data, err := handle(s, string(item.ID), item.Payload)
			status := statusFor(err)
			s.met.observe(j.op, status, time.Since(start))
			if err != nil {
				data = []byte(err.Error())
			}
			j.results[i] = wire.RespItem{Status: status, Data: data}
		}
	})
}

// acquireFanWidth returns the parallelism a batch of n items may use right
// now: 1 for the calling worker's own goroutine plus however many of the
// shared fanSlots permits are free, capped at min(n, Workers). It never
// blocks — under load it degrades to 1 and the batch executes inline on
// its worker. Pair every call with releaseFanWidth(width).
func (s *Server) acquireFanWidth(n int) int {
	width := 1
	limit := n
	if limit > s.cfg.Workers {
		limit = s.cfg.Workers
	}
	for width < limit {
		select {
		case <-s.fanSlots:
			width++
		default:
			return width
		}
	}
	return width
}

// releaseFanWidth returns the width−1 borrowed fan permits.
func (s *Server) releaseFanWidth(width int) {
	for i := 1; i < width; i++ {
		s.fanSlots <- struct{}{}
	}
}

func (s *Server) ping(string, []byte) ([]byte, error) { return nil, nil }

func (s *Server) ibeToken(id string, payload []byte) ([]byte, error) {
	if s.cfg.IBE == nil {
		return nil, unsupported("IBE backend not configured")
	}
	// U is only ever the evaluation point of ê(d_ID,sem, ·), so it needs to
	// be an abscissa other than O's and (0, 0)'s, not the [q]· ladder and not
	// its y: the token is paired against x_U alone and resolved by the
	// requester, who holds y_U (wire.UnmarshalPairingX, DESIGN §7).
	u, err := wire.UnmarshalPairingX(s.cfg.Pairing.Curve(), payload)
	if err != nil {
		return nil, err
	}
	token, err := s.cfg.IBE.TokenX(id, u)
	if err != nil {
		return nil, err
	}
	return token.Bytes(), nil
}

func (s *Server) gdhSign(id string, payload []byte) ([]byte, error) {
	if s.cfg.GDH == nil {
		return nil, unsupported("GDH backend not configured")
	}
	h, err := wire.UnmarshalG1(s.cfg.Pairing.Curve(), payload)
	if err != nil {
		return nil, err
	}
	half, err := s.cfg.GDH.HalfSign(id, h)
	if err != nil {
		return nil, err
	}
	return half.Marshal(), nil
}

// thresholdShare answers one ciphertext's U with this player's decryption
// share and proof, G‖W1‖W2‖V‖E at the fixed widths of shareWidths.
func (s *Server) thresholdShare(id string, payload []byte) ([]byte, error) {
	if s.cfg.Threshold == nil {
		return nil, unsupported("threshold backend not configured")
	}
	// As in ibeToken: U is only the evaluation point of ê(d_IDi, ·) — the
	// proof is powers of that value and a multiple of the player's share.
	u, err := wire.UnmarshalPairingArg(s.cfg.Pairing.Curve(), payload)
	if err != nil {
		return nil, err
	}
	ds, err := s.cfg.Threshold.Share(id, u)
	if err != nil {
		return nil, err
	}
	gt, point, scalar := shareWidths(s.cfg.Pairing)
	out := make([]byte, 0, 3*gt+point+scalar)
	out = append(out, ds.G.Bytes()...)        //cryptolint:public (sanctioned wire serialization edge; the share goes to the recombiner by design)
	out = append(out, ds.Proof.W1.Bytes()...) //cryptolint:public (the NIZK proof is public by construction)
	out = append(out, ds.Proof.W2.Bytes()...) //cryptolint:public (the NIZK proof is public by construction)
	out = append(out, ds.Proof.V.Marshal()...)
	return append(out, ds.Proof.E.FillBytes(make([]byte, scalar))...), nil //cryptolint:public (the NIZK proof is public by construction)
}

func (s *Server) rsaDecrypt(id string, payload []byte) ([]byte, error) {
	if s.cfg.RSA == nil {
		return nil, unsupported("RSA backend not configured")
	}
	half, err := s.cfg.RSA.HalfOp(id, core.RSACiphertext(payload))
	if err != nil {
		return nil, err
	}
	return half.Bytes(), nil //cryptolint:public (sanctioned wire serialization edge; the half-result goes to the user by design)
}

func (s *Server) rsaSign(id string, payload []byte) ([]byte, error) {
	if s.cfg.RSA == nil {
		return nil, unsupported("RSA backend not configured")
	}
	half, err := s.cfg.RSA.HalfOp(id, core.RSAMessage(payload))
	if err != nil {
		return nil, err
	}
	return half.Bytes(), nil //cryptolint:public (sanctioned wire serialization edge; the half-result goes to the user by design)
}

func (s *Server) gmDecrypt(id string, payload []byte) ([]byte, error) {
	if s.cfg.GM == nil {
		return nil, unsupported("GM backend not configured")
	}
	cs, err := wire.UnpackInts(payload)
	if err != nil {
		return nil, err
	}
	halves, err := s.cfg.GM.HalfDecryptGM(id, cs)
	if err != nil {
		return nil, err
	}
	packed, err := wire.PackInts(halves)
	if err != nil {
		return nil, internal(err)
	}
	return packed, nil
}

// revoke disables id; the item's payload is the reason. On a replication
// leader the mutation goes through the Leader so it is sequenced, made
// durable and streamed to the fleet in one motion.
func (s *Server) revoke(id string, reason []byte) ([]byte, error) {
	switch {
	case s.cfg.Leader != nil:
		return nil, internal(s.cfg.Leader.Revoke(id, string(reason)))
	case s.cfg.Journal != nil:
		if err := s.refuseIfFollower(); err != nil {
			return nil, err
		}
		return nil, internal(s.cfg.Journal.Revoke(id, string(reason)))
	default:
		s.cfg.Registry.Revoke(id, string(reason))
		return nil, nil
	}
}

// unrevoke restores id (leader-sequenced like revoke).
func (s *Server) unrevoke(id string, _ []byte) ([]byte, error) {
	switch {
	case s.cfg.Leader != nil:
		return nil, internal(s.cfg.Leader.Unrevoke(id))
	case s.cfg.Journal != nil:
		if err := s.refuseIfFollower(); err != nil {
			return nil, err
		}
		return nil, internal(s.cfg.Journal.Unrevoke(id))
	default:
		s.cfg.Registry.Unrevoke(id)
		return nil, nil
	}
}

// refuseIfFollower fences direct revocation mutations on a replication
// follower. A journal that has adopted a leader epoch (> 0) is driven
// solely by the leader's ordered stream; if this daemon self-sequenced a
// direct mutation, its numbering would fork from the leader's and a racing
// fast-path hint could shadow the authoritative order forever. The caller
// gets a typed not_leader refusal pointing at the real write path. A
// standalone journaled daemon (epoch 0, never spoken to by a leader) keeps
// accepting direct mutations. Returns nil when the mutation may proceed.
func (s *Server) refuseIfFollower() error {
	if epoch := s.cfg.Journal.Epoch(); epoch > 0 {
		return fmt.Errorf("%w: this daemon follows a revocation leader at epoch %d; route the mutation through the leader shard", repl.ErrNotLeader, epoch)
	}
	return nil
}

func (s *Server) status(id string, _ []byte) ([]byte, error) {
	if s.cfg.Registry.IsRevoked(id) {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (s *Server) list(string, []byte) ([]byte, error) {
	body, err := json.Marshal(s.cfg.Registry.Entries())
	if err != nil {
		return nil, internal(err)
	}
	return body, nil
}

// checkRegister gates both enrollment ops.
func (s *Server) checkRegister(id string, backend bool, name string) error {
	switch {
	case !s.cfg.AllowRegister:
		return unsupported("registration not enabled (AllowRegister)")
	case !backend:
		return unsupported(name + " backend not configured")
	case id == "":
		return badRequest("register needs an identity")
	}
	return nil
}

func (s *Server) registerIBE(id string, payload []byte) ([]byte, error) {
	if err := s.checkRegister(id, s.cfg.IBE != nil, "IBE"); err != nil {
		return nil, err
	}
	d, err := wire.UnmarshalG1(s.cfg.Pairing.Curve(), payload)
	if err != nil {
		return nil, err
	}
	s.cfg.IBE.Register(&core.SEMKeyHalf{ID: id, D: d})
	return nil, nil
}

func (s *Server) registerGDH(id string, payload []byte) ([]byte, error) {
	if err := s.checkRegister(id, s.cfg.GDH != nil, "GDH"); err != nil {
		return nil, err
	}
	x, err := wire.UnmarshalScalar(payload, s.cfg.Pairing.Q())
	if err != nil || x.Sign() <= 0 {
		return nil, badRequest("x_sem scalar outside [1, q-1]")
	}
	s.cfg.GDH.Register(&core.GDHSEMKey{ID: id, X: x})
	return nil, nil
}
