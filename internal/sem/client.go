package sem

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// transport is what a client flavour supplies: how one (id, payload) item,
// and how a batch of them, reaches a SEM and comes back as raw bytes. Pool
// sends to its one daemon; ShardedClient routes by identity across a fleet.
//
// many's results and errs are index-aligned with the inputs (errs[i] nil on
// success). A transport failure mid-batch is returned as the call error AND
// stamped into errs[i] for every item it voided — results from chunks that
// already completed are kept, so callers get the tokens/halves they paid
// round trips for even when a later chunk dies. A call that could not start
// at all returns nil slices.
type transport interface {
	one(op byte, id string, payload []byte) ([]byte, error)
	many(op byte, ids []string, payloads [][]byte) ([][]byte, []error, error)
}

// ops is every typed SEM operation, written once over a transport and
// embedded by Pool and ShardedClient — the two expose the same methods
// because they are the same methods. Responses are SEM output, which the
// threat model treats as honest-but-curious at best: every point, GT
// element and scalar is validated (order-q membership, range) before it
// enters the user's arithmetic.
type ops struct {
	t  transport
	pp *pairing.Params // nil when only RSA/GM/admin ops will be used
}

var errNoPairing = errors.New("sem: client has no pairing params")

// ErrClientClosed is returned by every operation on a client whose Close
// has been called. An op failing with it means "we tore this connection
// down ourselves" (eviction, shutdown), never that the peer died.
var ErrClientClosed = errors.New("sem: client closed")

// call is the one single-item path: the op's request goes out through the
// transport and the SEM's answer comes back only through check, the op's
// validator.
func call[T any](o *ops, op byte, id string, payload []byte, check func([]byte) (T, error)) (T, error) {
	raw, err := o.t.one(op, id, payload)
	if err != nil {
		var zero T
		return zero, err
	}
	return check(raw)
}

// batch is the one multi-item path: it marshals each operand, sends the
// items through the transport and runs check on every answered slot with
// that slot's operand, fanned across cores, demoting a slot that fails
// validation to an error. An operand marshal refuses fails the whole call
// before anything is sent. results and errs are index-aligned with the
// inputs; a non-nil err reports a transport failure partway through, in
// which case the slots answered before it are still validated and returned
// and the voided ones carry that error in errs.
func batch[X, T any](o *ops, op byte, ids []string, xs []X, marshal func(X) ([]byte, error), check func(X, []byte) (T, error)) (results []T, errs []error, err error) {
	if len(ids) != len(xs) {
		return nil, nil, fmt.Errorf("sem: batch has %d ids but %d operands", len(ids), len(xs))
	}
	payloads := make([][]byte, len(xs))
	for i, x := range xs {
		if payloads[i], err = marshal(x); err != nil {
			return nil, nil, fmt.Errorf("sem: batch operand %d: %w", i, err)
		}
	}
	raws, errs, err := o.t.many(op, ids, payloads)
	if raws == nil {
		return nil, nil, err
	}
	results = make([]T, len(raws))
	parallel.Fan(len(raws), func(i int) {
		if errs[i] == nil {
			results[i], errs[i] = check(xs[i], raws[i])
		}
	})
	return results, errs, err
}

// ErrBadOperand refuses a point-taking op's nil or O operand on the client,
// before anything is sent: no SEM op takes O, and nil has no encoding.
var ErrBadOperand = errors.New("sem: operand point is nil or the identity")

// marshalPoint encodes a point operand, refusing nil and O (ErrBadOperand).
func marshalPoint(p *curve.Point) ([]byte, error) {
	if p.IsInfinity() {
		return nil, ErrBadOperand
	}
	return p.Marshal(), nil
}

func marshalInt(x *big.Int) []byte { return x.Bytes() } //cryptolint:public (sanctioned wire serialization edge: ciphertexts are on the wire by design, SEM half delivery is the enrollment protocol)

// intOperand is marshalInt in batch's form; an integer operand is never
// refused.
func intOperand(x *big.Int) ([]byte, error) { return marshalInt(x), nil }

// gt validates a GT answer: canonical encoding and order-q membership.
func (o *ops) gt(raw []byte) (*pairing.GT, error) { return wire.UnmarshalGT(o.pp, raw) }

// halfSig validates a half-signature for the point h it was asked about:
// canonical encoding and order-q membership, whatever h.
func (o *ops) halfSig(_ *curve.Point, raw []byte) (*curve.Point, error) {
	return wire.UnmarshalG1(o.pp.Curve(), raw)
}

// token validates an ibe_token answer for the U it was asked about: X‖Y
// paired against U's abscissa, resolved with U's y to X + (Y·y_U)·i and
// checked for order-q membership (wire.UnmarshalGTX).
func (o *ops) token(u *curve.Point, raw []byte) (*pairing.GT, error) {
	return wire.UnmarshalGTX(o.pp, raw, u)
}

// below validates a Z_n answer: a residue in [0, n).
func below(n *big.Int) func([]byte) (*big.Int, error) {
	return func(raw []byte) (*big.Int, error) { return wire.UnmarshalScalar(raw, n) }
}

// revoked validates a status answer: exactly one byte, 1 for revoked and 0
// for not.
func revoked(raw []byte) (bool, error) {
	if len(raw) != 1 || raw[0] > 1 {
		return false, fmt.Errorf("%w: revocation status %x, want one byte 0 or 1", ErrProtocol, raw)
	}
	return raw[0] == 1, nil
}

// ignore reads nothing from an answer: the register ops answer with an
// empty payload the caller has no use for.
func ignore[X any](X, []byte) (struct{}, error) { return struct{}{}, nil }

// ShareReply is a threshold player's answer as the client has checked it —
// G and W2 resolved with U's y, G, W1 and W2 each in GT (the three ladders
// in one call, wire.UnmarshalGTEach), the challenge E below q — with its
// proof's V still the player's encoding. V is decoded beside other replies'
// (DecodeShares): a recombiner takes a round's square roots in one call.
// Every element comes from a possibly-misbehaving player, so all of it is
// checked before it enters verification arithmetic.
type ShareReply struct {
	Share *core.DecryptionShare // Proof.V is set by DecodeShares
	V     []byte
}

// share validates a threshold player's answer to the U it was asked about,
// whatever U, up to its V (ShareReply). G and W2 are x-only values of U's
// ring, X‖Y, which only the holder of U can resolve: the player read U's
// abscissa alone (DESIGN §7 "The share from U's abscissa").
func (o *ops) share(u *curve.Point, raw []byte) (ShareReply, error) {
	gt, point, scalar := shareWidths(o.pp)
	if size := 3*gt + point + scalar; len(raw) != size {
		return ShareReply{}, fmt.Errorf("%w: threshold share is %d bytes, want %d", ErrProtocol, len(raw), size)
	}
	var gs [3]*pairing.GT
	if err := wire.UnmarshalGTEach(o.pp, gs[:], []curve.EvalArg{u, nil, u}, raw[:gt], raw[gt:2*gt], raw[2*gt:3*gt]); err != nil {
		return ShareReply{}, err
	}
	e, err := wire.UnmarshalScalar(raw[3*gt+point:], o.pp.Q())
	if err != nil {
		return ShareReply{}, err
	}
	return ShareReply{
		Share: &core.DecryptionShare{G: gs[0], Proof: &core.ShareProof{W1: gs[1], W2: gs[2], E: e}},
		V:     raw[3*gt : 3*gt+point],
	}, nil
}

// DecodeShares completes replies by decoding every proof point V in one
// call, as what it is to the verifier: the evaluation point of one pairing
// (wire.UnmarshalPairingArgs: canonical, on the curve, not O — no [q]·
// ladder), each with its own verdict. A cofactor component in V changes
// nothing the proof check sees, and a V with no order-q part fails that
// check like any other wrong V (core.VerifyShareProofs, DESIGN §7). It sets
// each decoded V in its reply's Share and returns the decoder's refusal of
// replies[i] in errs[i]; a reply without a Share (a failed item) is
// skipped, with a nil error.
func DecodeShares(c *curve.Curve, replies []ShareReply) (errs []error) {
	const inline = 8 // a round's V's at any t the cluster runs
	var rb [inline][]byte
	var vb [inline]curve.EvalPoint
	var eb [inline]error
	raws := rb[:0]
	for _, r := range replies {
		if r.Share != nil {
			raws = append(raws, r.V)
		}
	}
	vs, verrs := vb[:], eb[:]
	if len(raws) > inline {
		vs, verrs = make([]curve.EvalPoint, len(raws)), make([]error, len(raws))
	}
	wire.UnmarshalPairingArgs(c, vs, verrs, raws...)
	errs = make([]error, len(replies))
	k := 0
	for i, r := range replies {
		if r.Share == nil {
			continue
		}
		if errs[i] = verrs[k]; errs[i] == nil {
			r.Share.Proof.V = vs[k]
		}
		k++
	}
	return errs
}

// Ping checks liveness.
func (o *ops) Ping() error {
	_, err := o.t.one(opPing, "", nil)
	return err
}

// IBEToken requests the decryption token ê(U, d_ID,sem) for a ciphertext's
// U component. The SEM pairs against U's abscissa alone and the token is
// resolved here with U's y (OpIBEToken).
func (o *ops) IBEToken(id string, u *curve.Point) (*pairing.GT, error) {
	if o.pp == nil {
		return nil, errNoPairing
	}
	payload, err := marshalPoint(u)
	if err != nil {
		return nil, err
	}
	return call(o, opIBEToken, id, payload, func(raw []byte) (*pairing.GT, error) { return o.token(u, raw) })
}

// TokenBatch requests decryption tokens for k (id, U) pairs in one frame
// per negotiated chunk — the batch counterpart of IBEToken, each token
// checked as IBEToken checks it.
func (o *ops) TokenBatch(ids []string, us []*curve.Point) (tokens []*pairing.GT, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	return batch(o, opIBEToken, ids, us, marshalPoint, o.token)
}

// GDHHalfSign requests the SEM half-signature S_sem = x_sem·h for an
// already-hashed message point.
func (o *ops) GDHHalfSign(id string, h *curve.Point) (*curve.Point, error) {
	if o.pp == nil {
		return nil, errNoPairing
	}
	payload, err := marshalPoint(h)
	if err != nil {
		return nil, err
	}
	return call(o, opGDHSign, id, payload, func(raw []byte) (*curve.Point, error) { return o.halfSig(h, raw) })
}

// GDHHalfSignBatch requests SEM half-signatures for k (id, h(M)) pairs —
// the batch counterpart of GDHHalfSign.
func (o *ops) GDHHalfSignBatch(ids []string, hs []*curve.Point) (halves []*curve.Point, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	return batch(o, opGDHSign, ids, hs, marshalPoint, o.halfSig)
}

// RSAHalfDecrypt requests m_sem = c^{d_sem} mod n, range-checked against
// the public modulus: the SEM step core.DecryptRSA asks.
func (o *ops) RSAHalfDecrypt(pub *mrsa.PublicKey, id string, c *big.Int) (*big.Int, error) {
	return call(o, opRSADecrypt, id, marshalInt(c), below(pub.N))
}

// RSAHalfDecryptBatch requests m_sem = c^{d_sem} mod n for k ciphertexts,
// each response range-checked against the public modulus.
func (o *ops) RSAHalfDecryptBatch(pub *mrsa.PublicKey, ids []string, cts []*big.Int) (halves []*big.Int, errs []error, err error) {
	return batch(o, opRSADecrypt, ids, cts, intOperand, func(_ *big.Int, raw []byte) (*big.Int, error) {
		return wire.UnmarshalScalar(raw, pub.N)
	})
}

// RSAHalfSign requests EMSA(msg)^{d_sem} mod n. The public key carries the
// modulus the SEM's response is range-checked against.
func (o *ops) RSAHalfSign(pub *mrsa.PublicKey, id string, msg []byte) (*big.Int, error) {
	return call(o, opRSASign, id, msg, below(pub.N))
}

// GMHalfDecrypt requests c^{d_sem} mod n for every element of a bitwise
// Goldwasser-Micali ciphertext: the SEM step core.DecryptGM asks, whose
// completion checks every element against the public key.
func (o *ops) GMHalfDecrypt(id string, cs []*big.Int) ([]*big.Int, error) {
	payload, err := wire.PackInts(cs)
	if err != nil {
		return nil, err
	}
	return call(o, opGMDecrypt, id, payload, wire.UnpackInts)
}

// ThresholdShare requests a threshold-IBE player's decryption share
// ê(U, d_IDi) with its robustness proof (paper §3.2), validated and
// resolved with U's y (ShareReply, DecodeShares). The share's Index is
// left zero: the wire carries none, and the caller stamps the player it
// dialed before verifying — so a player cannot pass off another's share.
func (o *ops) ThresholdShare(id string, u *curve.Point) (*core.DecryptionShare, error) {
	if o.pp == nil {
		return nil, errNoPairing
	}
	payload, err := marshalPoint(u)
	if err != nil {
		return nil, err
	}
	reply, err := call(o, opThresholdShare, id, payload, func(raw []byte) (ShareReply, error) { return o.share(u, raw) })
	if err != nil {
		return nil, err
	}
	if err := DecodeShares(o.pp.Curve(), []ShareReply{reply})[0]; err != nil {
		return nil, err
	}
	return reply.Share, nil
}

// ThresholdShareBatch requests one player's shares for k (id, U) pairs —
// the batch counterpart of ThresholdShare — and returns them checked up to
// their proof points, for the caller to decode with other players' in one
// call (DecodeShares).
func (o *ops) ThresholdShareBatch(ids []string, us []*curve.Point) (replies []ShareReply, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	return batch(o, opThresholdShare, ids, us, marshalPoint, o.share)
}

// Revoke instructs the SEM to revoke an identity.
func (o *ops) Revoke(id, reason string) error {
	_, err := o.t.one(opRevoke, id, []byte(reason))
	return err
}

// Unrevoke restores an identity.
func (o *ops) Unrevoke(id string) error {
	_, err := o.t.one(opUnrevoke, id, nil)
	return err
}

// Status reports whether an identity is revoked. An answer other than
// one byte 0 or 1 is an ErrProtocol, never a verdict.
func (o *ops) Status(id string) (bool, error) {
	return call(o, opStatus, id, nil, revoked)
}

// RegisterIBE installs the SEM half of id's mediated IBE key. The server
// must have been started with AllowRegister.
func (o *ops) RegisterIBE(id string, d *curve.Point) error {
	payload, err := marshalPoint(d)
	if err != nil {
		return err
	}
	_, err = o.t.one(opRegisterIBE, id, payload)
	return err
}

// RegisterIBEBatch installs k SEM IBE halves in one frame per negotiated
// chunk — the bulk-enrollment path semload uses to seed a million
// identities. errs is index-aligned; err reports a transport failure
// partway through.
func (o *ops) RegisterIBEBatch(ids []string, ds []*curve.Point) ([]error, error) {
	_, errs, err := batch(o, opRegisterIBE, ids, ds, marshalPoint, ignore[*curve.Point])
	return errs, err
}

// RegisterGDH installs the SEM half of id's GDH signing key. The server
// must have been started with AllowRegister.
func (o *ops) RegisterGDH(id string, x *big.Int) error {
	_, err := o.t.one(opRegisterGDH, id, marshalInt(x))
	return err
}

// RegisterGDHBatch installs k SEM GDH halves in one frame per negotiated
// chunk.
func (o *ops) RegisterGDHBatch(ids []string, xs []*big.Int) ([]error, error) {
	_, errs, err := batch(o, opRegisterGDH, ids, xs, intOperand, ignore[*big.Int])
	return errs, err
}

// ErrPartialList reports that ListRevoked dropped entries it could not
// parse; the returned slice still carries every valid entry.
var ErrPartialList = errors.New("sem: revocation list contained invalid entries")

// ListRevoked fetches the SEM's full revocation list. A malformed element
// in the server's response does not void the whole call: valid entries are
// returned alongside an ErrPartialList error describing how many were
// dropped, so an operator listing revocations during an incident still
// sees everything parseable.
func (o *ops) ListRevoked() ([]core.RevocationEntry, error) {
	payload, err := o.t.one(opList, "", nil)
	if err != nil {
		return nil, err
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(payload, &raw); err != nil {
		return nil, fmt.Errorf("sem: parse revocation list: %w", err)
	}
	entries := make([]core.RevocationEntry, 0, len(raw))
	dropped := 0
	for _, el := range raw {
		var e core.RevocationEntry
		if err := json.Unmarshal(el, &e); err != nil || e.ID == "" {
			dropped++
			continue
		}
		entries = append(entries, e)
	}
	if dropped > 0 {
		return entries, fmt.Errorf("%w: dropped %d of %d", ErrPartialList, dropped, len(raw))
	}
	return entries, nil
}

// WireStats accumulates protocol traffic for one operation class.
type WireStats struct {
	Calls         int
	BytesSent     int
	BytesReceived int
	// PayloadReceived counts only the SEM→user payload (the token/half),
	// excluding protocol framing — the quantity the paper compares.
	PayloadReceived int
}
