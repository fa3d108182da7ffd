package sem

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/gm"
	"repro/internal/mrsa"
	"repro/internal/pairing"
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

// Ping checks liveness.
func (o *ops) Ping() error {
	_, err := o.t.one(opPing, "", nil)
	return err
}

// IBEToken requests the decryption token ê(U, d_ID,sem) for a ciphertext's
// U component.
func (o *ops) IBEToken(id string, u *curve.Point) (*pairing.GT, error) {
	if o.pp == nil {
		return nil, errNoPairing
	}
	raw, err := o.t.one(opIBEToken, id, u.Marshal())
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalGT(o.pp, raw)
}

// DecryptIBE runs the user side of the full mediated-IBE decryption
// protocol over the network: request token, pair the user half, open.
func (o *ops) DecryptIBE(pub *bf.PublicParams, key *core.UserKeyHalf, ct *bf.Ciphertext) ([]byte, error) {
	token, err := o.IBEToken(key.ID, ct.U)
	if err != nil {
		return nil, err
	}
	return core.UserDecrypt(pub, key, ct, token)
}

// GDHHalfSign requests the SEM half-signature S_sem = x_sem·h for an
// already-hashed message point.
func (o *ops) GDHHalfSign(id string, h *curve.Point) (*curve.Point, error) {
	if o.pp == nil {
		return nil, errNoPairing
	}
	raw, err := o.t.one(opGDHSign, id, h.Marshal())
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalG1(o.pp.Curve(), raw)
}

// SignGDH runs the user side of the full mediated-GDH signing protocol over
// the network.
func (o *ops) SignGDH(key *core.GDHUserKey, msg []byte) (*curve.Point, error) {
	h, err := bls.HashMessage(key.Public.Pairing, msg)
	if err != nil {
		return nil, err
	}
	semHalf, err := o.GDHHalfSign(key.ID, h)
	if err != nil {
		return nil, err
	}
	return core.UserSign(key, msg, semHalf)
}

// RSAHalfDecrypt requests m_sem = c^{d_sem} mod n. The public key carries
// the modulus the SEM's response is range-checked against.
func (o *ops) RSAHalfDecrypt(pub *mrsa.PublicKey, id string, ciphertext *big.Int) (*big.Int, error) {
	raw, err := o.t.one(opRSADecrypt, id, ciphertext.Bytes()) //cryptolint:public (sanctioned wire serialization edge; the ciphertext is on the wire by design)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalScalar(raw, pub.N)
}

// DecryptRSA runs the user side of the mediated-RSA decryption protocol
// over the network.
func (o *ops) DecryptRSA(pub *mrsa.PublicKey, id string, userHalf *mrsa.HalfKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != pub.ModulusBytes() {
		return nil, mrsa.ErrDecrypt
	}
	ci, err := wire.UnmarshalScalar(ciphertext, pub.N)
	if err != nil {
		return nil, mrsa.ErrDecrypt
	}
	semHalf, err := o.RSAHalfDecrypt(pub, id, ci)
	if err != nil {
		return nil, err
	}
	combined := mrsa.Combine(pub.N, userHalf.Op(ci), semHalf)
	return mrsa.FinishDecrypt(pub, combined)
}

// RSAHalfSign requests EMSA(msg)^{d_sem} mod n. The public key carries the
// modulus the SEM's response is range-checked against.
func (o *ops) RSAHalfSign(pub *mrsa.PublicKey, id string, msg []byte) (*big.Int, error) {
	raw, err := o.t.one(opRSASign, id, msg)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalScalar(raw, pub.N)
}

// SignRSA runs the user side of the mediated-RSA signing protocol over the
// network.
func (o *ops) SignRSA(pub *mrsa.PublicKey, userHalf *mrsa.HalfKey, id string, msg []byte) ([]byte, error) {
	semHalf, err := o.RSAHalfSign(pub, id, msg)
	if err != nil {
		return nil, err
	}
	mine, err := mrsa.SignHalf(userHalf, msg)
	if err != nil {
		return nil, err
	}
	return mrsa.FinishSignature(pub, msg, mine, semHalf)
}

// GMHalfDecrypt requests the SEM half-results for a bitwise GM ciphertext.
func (o *ops) GMHalfDecrypt(id string, cs []*big.Int) ([]*big.Int, error) {
	payload, err := wire.PackInts(cs)
	if err != nil {
		return nil, err
	}
	raw, err := o.t.one(opGMDecrypt, id, payload)
	if err != nil {
		return nil, err
	}
	halves, err := wire.UnpackInts(raw)
	if err != nil {
		return nil, err
	}
	if len(halves) != len(cs) {
		return nil, fmt.Errorf("sem: GM response has %d elements, want %d", len(halves), len(cs))
	}
	return halves, nil
}

// DecryptGM runs the user side of the mediated Goldwasser-Micali
// decryption protocol over the network.
func (o *ops) DecryptGM(pk *gm.PublicKey, id string, userHalf *gm.HalfKey, cs []*big.Int) ([]byte, error) {
	if len(cs)%8 != 0 {
		return nil, fmt.Errorf("sem: GM ciphertext length %d not a multiple of 8", len(cs))
	}
	semParts, err := o.GMHalfDecrypt(id, cs)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(cs)/8)
	for i, ct := range cs {
		bit, err := gm.CombineBit(pk, userHalf.Op(ct), semParts[i])
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		out[i/8] |= bit << uint(7-i%8)
	}
	return out, nil
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

// Status reports whether an identity is revoked.
func (o *ops) Status(id string) (bool, error) {
	raw, err := o.t.one(opStatus, id, nil)
	if err != nil {
		return false, err
	}
	return len(raw) == 1 && raw[0] == 1, nil //cryptolint:public (one-byte revocation status straight off the wire)
}

// RegisterIBE installs the SEM half of id's mediated IBE key. The server
// must have been started with AllowRegister.
func (o *ops) RegisterIBE(id string, d *curve.Point) error {
	_, err := o.t.one(opRegisterIBE, id, d.Marshal())
	return err
}

// RegisterGDH installs the SEM half of id's GDH signing key. The server
// must have been started with AllowRegister.
func (o *ops) RegisterGDH(id string, x *big.Int) error {
	_, err := o.t.one(opRegisterGDH, id, x.Bytes()) //cryptolint:public (sanctioned wire serialization edge; SEM half delivery is the enrollment protocol)
	return err
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

// marshalAll applies one serializer across a batch's operands.
func marshalAll[T any](ids []string, xs []T, marshal func(T) []byte) ([][]byte, error) {
	if len(ids) != len(xs) {
		return nil, fmt.Errorf("sem: batch has %d ids but %d operands", len(ids), len(xs))
	}
	payloads := make([][]byte, len(xs))
	for i, x := range xs {
		payloads[i] = marshal(x)
	}
	return payloads, nil
}

func marshalPoint(p *curve.Point) []byte { return p.Marshal() }
func marshalInt(x *big.Int) []byte       { return x.Bytes() } //cryptolint:public (sanctioned wire serialization edge: ciphertexts are on the wire by design, SEM half delivery is the enrollment protocol)

// TokenBatch requests decryption tokens for k (id, U) pairs in one frame
// per negotiated chunk and validates the returned tokens with a single
// batched subgroup check (order-q membership for the whole batch in one
// combined exponentiation, per-item fallback pinpointing offenders only
// when something is actually bad) — the batch counterpart of IBEToken.
// tokens and errs are index-aligned with the inputs; a non-nil err reports
// a transport failure partway through, in which case tokens fetched before
// the failure are still returned and the voided slots carry that error in
// errs.
func (o *ops) TokenBatch(ids []string, us []*curve.Point) (tokens []*pairing.GT, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	payloads, err := marshalAll(ids, us, marshalPoint)
	if err != nil {
		return nil, nil, err
	}
	raws, errs, err := o.t.many(opIBEToken, ids, payloads)
	if raws == nil {
		return nil, nil, err
	}
	for i := range raws {
		if errs[i] != nil {
			raws[i] = nil
		}
	}
	tokens, gtErrs, berr := wire.UnmarshalGTBatch(o.pp, raws)
	if berr != nil {
		return nil, nil, fmt.Errorf("sem: batch token validation: %w", berr)
	}
	for i, e := range gtErrs {
		if errs[i] == nil && e != nil {
			errs[i] = e
		}
	}
	return tokens, errs, err
}

// decodeEach validates every successful slot of a batch with decode,
// demoting a slot that fails validation to an error.
func decodeEach[T any](raws [][]byte, errs []error, decode func([]byte) (T, error)) []T {
	out := make([]T, len(raws))
	for i, raw := range raws {
		if errs[i] == nil {
			out[i], errs[i] = decode(raw)
		}
	}
	return out
}

// GDHHalfSignBatch requests SEM half-signatures for k (id, h(M)) pairs —
// the batch counterpart of GDHHalfSign. Each returned point passes the
// same subgroup validation as the single-op path.
func (o *ops) GDHHalfSignBatch(ids []string, hs []*curve.Point) (halves []*curve.Point, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	payloads, err := marshalAll(ids, hs, marshalPoint)
	if err != nil {
		return nil, nil, err
	}
	raws, errs, err := o.t.many(opGDHSign, ids, payloads)
	if raws == nil {
		return nil, nil, err
	}
	c := o.pp.Curve()
	return decodeEach(raws, errs, func(raw []byte) (*curve.Point, error) { return wire.UnmarshalG1(c, raw) }), errs, err
}

// RSAHalfDecryptBatch requests m_sem = c^{d_sem} mod n for k ciphertexts —
// the batch counterpart of RSAHalfDecrypt. Responses are range-checked
// against the public modulus like the single-op path.
func (o *ops) RSAHalfDecryptBatch(pub *mrsa.PublicKey, ids []string, cts []*big.Int) (halves []*big.Int, errs []error, err error) {
	payloads, err := marshalAll(ids, cts, marshalInt)
	if err != nil {
		return nil, nil, err
	}
	raws, errs, err := o.t.many(opRSADecrypt, ids, payloads)
	if raws == nil {
		return nil, nil, err
	}
	return decodeEach(raws, errs, func(raw []byte) (*big.Int, error) { return wire.UnmarshalScalar(raw, pub.N) }), errs, err
}

// ThresholdShare requests a threshold-IBE player's decryption share
// ê(U, d_IDi) with its robustness proof (paper §3.2). The share's Index is
// left zero: the wire carries none, and the caller stamps the player it
// dialed before verifying — so a player cannot pass off another's share.
func (o *ops) ThresholdShare(id string, u *curve.Point) (*core.DecryptionShare, error) {
	shares, errs, err := o.ThresholdShareBatch([]string{id}, []*curve.Point{u})
	if shares == nil {
		return nil, err
	}
	return shares[0], errs[0]
}

// ThresholdShareBatch requests one player's shares for k (id, U) pairs —
// the batch counterpart of ThresholdShare. Every element comes from a
// possibly-misbehaving player, so before any of it enters verification
// arithmetic the 3k GT elements (share value and both proof commitments)
// pass the order-q membership check in one batched pass and each challenge
// the F_q range check. A proof's V is decoded as what it is to the verifier,
// the evaluation point of one pairing (wire.UnmarshalPairingArg: canonical,
// on the curve, not O — no [q]· ladder): a cofactor component in it changes
// nothing the proof check sees, and a V with no order-q part fails that
// check like any other wrong V (core.VerifyShareProofs, DESIGN §7).
func (o *ops) ThresholdShareBatch(ids []string, us []*curve.Point) (shares []*core.DecryptionShare, errs []error, err error) {
	if o.pp == nil {
		return nil, nil, errNoPairing
	}
	payloads, err := marshalAll(ids, us, marshalPoint)
	if err != nil {
		return nil, nil, err
	}
	raws, errs, err := o.t.many(opThresholdShare, ids, payloads)
	if raws == nil {
		return nil, nil, err
	}
	gt, point, scalar := shareWidths(o.pp)
	size := 3*gt + point + scalar
	gtRaws := make([][]byte, 3*len(raws))
	for i, raw := range raws {
		if errs[i] == nil && len(raw) != size {
			errs[i] = fmt.Errorf("%w: threshold share is %d bytes, want %d", ErrProtocol, len(raw), size)
		}
		if errs[i] == nil {
			gtRaws[3*i], gtRaws[3*i+1], gtRaws[3*i+2] = raw[:gt], raw[gt:2*gt], raw[2*gt:3*gt]
		}
	}
	gs, gtErrs, berr := wire.UnmarshalGTBatch(o.pp, gtRaws)
	if berr != nil {
		return nil, nil, fmt.Errorf("sem: batch share validation: %w", berr)
	}
	shares = make([]*core.DecryptionShare, len(raws))
	for i, raw := range raws {
		if errs[i] == nil {
			errs[i] = errors.Join(gtErrs[3*i], gtErrs[3*i+1], gtErrs[3*i+2])
		}
		if errs[i] != nil {
			continue
		}
		v, verr := wire.UnmarshalPairingArg(o.pp.Curve(), raw[3*gt:3*gt+point])
		e, eerr := wire.UnmarshalScalar(raw[3*gt+point:], o.pp.Q())
		if errs[i] = errors.Join(verr, eerr); errs[i] == nil {
			shares[i] = &core.DecryptionShare{G: gs[3*i], Proof: &core.ShareProof{W1: gs[3*i+1], W2: gs[3*i+2], E: e, V: v}}
		}
	}
	return shares, errs, err
}

// RegisterIBEBatch installs k SEM IBE halves in one frame per negotiated
// chunk — the bulk-enrollment path semload uses to seed a million
// identities. errs is index-aligned; err reports a transport failure
// partway through.
func (o *ops) RegisterIBEBatch(ids []string, ds []*curve.Point) ([]error, error) {
	payloads, err := marshalAll(ids, ds, marshalPoint)
	if err != nil {
		return nil, err
	}
	_, errs, err := o.t.many(opRegisterIBE, ids, payloads)
	return errs, err
}

// RegisterGDHBatch installs k SEM GDH halves in one frame per negotiated
// chunk.
func (o *ops) RegisterGDHBatch(ids []string, xs []*big.Int) ([]error, error) {
	payloads, err := marshalAll(ids, xs, marshalInt)
	if err != nil {
		return nil, err
	}
	_, errs, err := o.t.many(opRegisterGDH, ids, payloads)
	return errs, err
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
