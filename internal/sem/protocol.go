// Package sem implements the paper's online security mediator as a network
// service: a TCP daemon that holds the SEM key halves for all three
// mediated schemes (pairing IBE, GDH signature, mRSA/IB-mRSA), enforces a
// shared revocation list, and serves the per-operation protocol steps —
// exactly the "SEM remains online all the system's lifetime" deployment the
// paper describes, with the PKG offline after enrollment. The same daemon,
// configured with a threshold backend, is one decryption server of the
// paper's threshold IBE (threshold_share; internal/cluster builds on it).
//
// Wire format: one protocol, the binary framing of internal/wire
// (framev2.go). A connection opens with the client preamble ("SEM2" +
// version); the server answers with an acknowledgement carrying the
// connection's limits (max batch size, max frame bytes — Config.MaxBatch,
// Config.MaxFrame) and then both sides speak length-delimited binary
// frames only. Each frame carries one op byte and up to maxBatch items,
// answered by one in-order response frame; the items of a batch execute
// through the worker pool in one pass and their results keep request
// order. A connection that opens with anything else is closed.
package sem

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/pairing"
	"repro/internal/repl"
	"repro/internal/wire"
)

// Op names a protocol operation. The name is what metrics and WireStats are
// keyed by (the op="..." label); on the wire an operation is its op byte.
type Op string

// Protocol operations. The first group are the mediated crypto steps; the
// second are the admin/introspection endpoints.
//
// OpIBEToken's answer is x-only: the SEM reads only U's abscissa
// (wire.UnmarshalPairingX, no square root) and returns X‖Y with
// ê(d_ID,sem, U) = X + (Y·y_U)·i, which the client resolves with its own
// y_U before the GT check (wire.UnmarshalGTX).
const (
	OpIBEToken   Op = "ibe_token"     // item: id, compressed U → X‖Y (the token as X + (Y·y_U)·i)
	OpGDHSign    Op = "gdh_half_sign" // item: id, compressed h(M) → compressed S_sem
	OpRSADecrypt Op = "rsa_half_dec"  // item: id, c bytes → c^{d_sem} bytes
	OpRSASign    Op = "rsa_half_sig"  // item: id, message → EMSA(m)^{d_sem} bytes
	OpGMDecrypt  Op = "gm_half_dec"   // item: id, packed GM elements → packed half-results
	OpRevoke     Op = "revoke"        // item: id, reason bytes → empty
	OpUnrevoke   Op = "unrevoke"      // item: id → empty
	OpStatus     Op = "status"        // item: id → 1 byte (1 = revoked)
	OpList       Op = "list_revoked"  // item: none → JSON array of entries
	OpPing       Op = "ping"          // item: none → empty

	// Enrollment ops, served only when Config.AllowRegister is set: the
	// PKG/TA (or a load generator standing in for one) delivers SEM key
	// halves over the wire instead of at construction time. Like
	// revoke/unrevoke they are unauthenticated — the daemon trusts its
	// network perimeter — so production deployments keep them disabled
	// unless the enrollment plane really runs through this listener.
	OpRegisterIBE Op = "register_ibe" // item: id, compressed D_sem → empty
	OpRegisterGDH Op = "register_gdh" // item: id, x_sem scalar bytes (big-endian) → empty

	// Replication ops (internal/repl), served only when the daemon runs
	// with a journal. Like the admin ops they trust the network perimeter:
	// a replicated fleet runs leader and followers on one operator-owned
	// network.
	OpReplAppend   Op = "repl.append"   // item: repl.AppendRecords batch → empty
	OpReplSnapshot Op = "repl.snapshot" // item: repl.MarshalSnapshotChunk chunk → empty
	OpReplStatus   Op = "repl.status"   // item: none → repl.PackStatus payload

	// Threshold IBE (paper §3), served when Config.Threshold is set. The
	// response is the share ê(U, d_IDi) and its NIZK proof at the fixed
	// widths of shareWidths, with no player index: the recombiner knows whom
	// it dialed. A batch of ciphertexts is a multi-item frame of this op.
	OpThresholdShare Op = "threshold_share" // item: id, compressed U → G‖W1‖W2‖V‖E
)

// Op bytes: what a frame header carries. They index opTable (server.go),
// which binds each byte to its Op name and server handler.
const (
	opIBEToken byte = iota + 1
	opGDHSign
	opRSADecrypt
	opRSASign
	opGMDecrypt
	opRevoke
	opUnrevoke
	opStatus
	opList
	opPing
	opRegisterIBE
	opRegisterGDH
	opReplAppend
	opReplSnapshot
	opReplStatus
	opThresholdShare

	numOps = int(opThresholdShare) + 1 // opTable rows; row 0 is the byte no op uses
)

// shareWidths returns the field widths of a threshold_share response: a GT
// element (G, W1, W2), a compressed G1 point (V) and a scalar below q (E).
func shareWidths(pp *pairing.Params) (gt, point, scalar int) {
	coord := pp.Curve().CoordinateSize()
	return 2 * coord, 1 + coord, (pp.Q().BitLen() + 7) / 8
}

// Response status bytes. Zero is success; every other value is a failure
// class whose response data is the server's error message.
const (
	statusOK byte = iota
	statusRevoked
	statusUnknownIdentity
	statusBadRequest
	statusUnsupported
	statusInternal
	statusStaleEpoch
	statusSeqGap
	statusNotLeader
	statusNotReplicated

	numStatuses = int(statusNotReplicated) + 1
)

// statusTable describes each failure class once, for both ends: code is the
// sem_errors_total label and the class name in client error text; sentinel,
// where the class has one, is the typed error the server classifies by and
// the client's error unwraps to.
var statusTable = [numStatuses]struct {
	code     string
	sentinel error
}{
	statusOK:              {},
	statusRevoked:         {"revoked", core.ErrRevoked},
	statusUnknownIdentity: {"unknown_identity", core.ErrUnknownIdentity},
	statusBadRequest:      {"bad_request", nil},
	statusUnsupported:     {"unsupported", nil},
	statusInternal:        {"internal", nil},
	statusStaleEpoch:      {"stale_epoch", repl.ErrStaleEpoch},
	statusSeqGap:          {"seq_gap", repl.ErrSeqGap},
	statusNotLeader:       {"not_leader", repl.ErrNotLeader},
	statusNotReplicated:   {"not_replicated", repl.ErrNotReplicated},
}

// statusErr pins a handler error to a failure class no sentinel identifies.
// Its text is the cause's, so the message on the wire carries no wrapper
// prefix.
type statusErr struct {
	status byte
	err    error
}

func (e *statusErr) Error() string { return e.err.Error() }
func (e *statusErr) Unwrap() error { return e.err }

func unsupported(msg string) error { return &statusErr{statusUnsupported, errors.New(msg)} }
func badRequest(msg string) error  { return &statusErr{statusBadRequest, errors.New(msg)} }

// internal marks a server-side failure (journal I/O, encoding); nil stays
// nil so a call's error can be wrapped in place.
func internal(err error) error {
	if err == nil {
		return nil
	}
	return &statusErr{statusInternal, err}
}

// statusFor is the one error → status byte mapping of the server: a typed
// sentinel anywhere in the chain wins (so a deposed leader's ErrStaleEpoch
// keeps its class even when the caller marked the path internal), then an
// explicit statusErr class, and everything else a handler returns — an
// operand the backend refused — is a bad request.
func statusFor(err error) byte {
	if err == nil {
		return statusOK
	}
	for st, row := range statusTable {
		if row.sentinel != nil && errors.Is(err, row.sentinel) {
			return byte(st)
		}
	}
	var se *statusErr
	if errors.As(err, &se) {
		return se.status
	}
	return statusBadRequest
}

// ErrRemote marks every error the SEM answered over a healthy connection —
// revoked, unknown identity, bad request, internal failure. errors.Is(err,
// ErrRemote) == false therefore means a transport failure (dial, write,
// read, protocol violation), which is the router's cue to fail over to the
// next ring replica; a remote error would only repeat there.
var ErrRemote = errors.New("sem: remote error")

// remoteError carries a SEM-side message while unwrapping to the typed
// sentinel the server classified it as, plus ErrRemote.
type remoteError struct {
	msg      string
	sentinel error // nil when the class has no typed sentinel
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{e.sentinel, ErrRemote}
}

// remoteErr rebuilds the client-side error for a failed response item: the
// message is the SEM's own, and errors.Is matches the class's sentinel as
// well as ErrRemote. A status byte this build does not know reads as an
// internal failure.
func remoteErr(status byte, msg []byte) error {
	if int(status) >= len(statusTable) {
		status = statusInternal
	}
	row := statusTable[status]
	if row.sentinel != nil {
		return &remoteError{msg: string(msg), sentinel: row.sentinel}
	}
	return &remoteError{msg: fmt.Sprintf("sem: %s (%s)", msg, row.code)}
}

// Frame limits. The per-connection cap is part of Config (MaxFrame,
// MaxBatch) and is announced to clients in the negotiation ack; these are
// the defaults when the config leaves them zero.
const (
	// DefaultMaxFrame is the per-connection frame cap applied when
	// Config.MaxFrame is zero.
	DefaultMaxFrame = wire.MaxFrame
	// DefaultMaxBatch is the per-frame batch cap applied when
	// Config.MaxBatch is zero.
	DefaultMaxBatch = 64
)

// Framing errors, re-exported so existing callers keep their errors.Is
// matches.
var (
	// ErrFrameTooLarge is returned when a peer announces an oversized frame.
	ErrFrameTooLarge = wire.ErrFrameTooLarge

	// ErrBatchTooLarge is returned when a peer sends more items in one
	// frame than the negotiated batch limit.
	ErrBatchTooLarge = wire.ErrBatchTooLarge

	// ErrProtocol is returned on malformed frames.
	ErrProtocol = wire.ErrProtocol
)
