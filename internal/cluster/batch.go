package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/wire"
)

// Batched shares: one "shares" request carries every ciphertext point of a
// decryption batch, so a k-ciphertext threshold decryption costs one
// connection and one frame round trip per player instead of k. The
// recombiner validates the returned GT elements (share values and both
// proof commitments) through wire.UnmarshalGTBatch — one combined
// subgroup exponentiation per player response instead of 3k.

// shareItem is one per-ciphertext result inside a batched response.
type shareItem struct {
	OK    bool       `json:"ok"`
	Error string     `json:"error,omitempty"`
	G     []byte     `json:"g,omitempty"`
	Proof *proofWire `json:"proof,omitempty"`
}

// sharesResponse answers a batched "shares" request. The key lookup
// happens once; each ciphertext point is validated and served
// independently so one malformed point fails only its own slot.
func (p *PlayerServer) sharesResponse(req *request) *response {
	p.keysMu.RLock()
	key, ok := p.keys[req.ID]
	p.keysMu.RUnlock()
	if !ok {
		return &response{OK: false, Error: ErrUnknownIdentity.Error()}
	}
	items := make([]shareItem, len(req.Us))
	for i, raw := range req.Us {
		u, err := wire.UnmarshalG1(p.params.Public.Pairing.Curve(), raw)
		if err != nil {
			items[i] = shareItem{Error: "bad ciphertext point: " + err.Error()}
			continue
		}
		ds, err := p.params.ComputeShareWithProof(nil, key, u)
		if err != nil {
			items[i] = shareItem{Error: err.Error()}
			continue
		}
		if p.misbehave != nil {
			ds = p.misbehave(ds)
		}
		items[i] = shareItem{
			OK: true,
			G:  ds.G.Bytes(), //cryptolint:public (sanctioned wire serialization edge; the share goes to the recombiner by design)
			Proof: &proofWire{
				W1: ds.Proof.W1.Bytes(), //cryptolint:public (the NIZK proof is public by construction)
				W2: ds.Proof.W2.Bytes(), //cryptolint:public (the NIZK proof is public by construction)
				E:  ds.Proof.E.Bytes(),  //cryptolint:public (the NIZK proof is public by construction)
				V:  ds.Proof.V.Marshal(),
			},
		}
	}
	return &response{OK: true, Index: p.index, Shares: items}
}

// DecryptBatch fans k ciphertexts for one identity out to every reachable
// player in a single round trip per player, verifies every returned
// share's proof, and recombines each ciphertext from t acceptable shares.
// It returns the plaintexts in request order together with the indices of
// rejected players. A player is rejected wholesale — unreachable,
// malformed response, or any share failing decode or NIZK verification —
// because a peer caught lying once is not trustworthy for its other
// shares either.
//
// Like Decrypt, the per-player fetch+verify chains run concurrently, so
// wall time is bounded by the slowest player, not the sum; unlike k
// Decrypt calls, each player is dialed once and its response validated
// with one batched subgroup check.
func (r *Recombiner) DecryptBatch(id string, cs []*bf.BasicCiphertext) (msgs [][]byte, rejected []int, err error) {
	if len(cs) == 0 {
		return nil, nil, nil
	}
	for range cs {
		r.met.decryptStarted()
	}
	us := make([][]byte, len(cs))
	for i, c := range cs {
		us[i] = c.U.Marshal()
	}
	// Q_ID is the same for all n·k verifications: hash the identity once.
	qid, err := bf.HashIdentity(r.params.Public.Pairing, id)
	if err != nil {
		return nil, nil, err
	}

	type outcome struct {
		index  int
		shares []*core.DecryptionShare // len(cs) when err == nil
		err    error
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
			shares, err := r.fetchShares(addr, id, us)
			if err == nil {
				for j, share := range shares {
					if err = r.params.VerifyShareProofFor(qid, cs[j].U, share); err != nil {
						r.met.verifyFailed()
						break
					}
				}
			}
			r.met.observeFetch(i, time.Since(fetchStart))
			results <- outcome{index: i, shares: shares, err: err}
		}(i, addr)
	}
	wg.Wait()
	r.met.observeQuorumWait(time.Since(start))
	close(results)

	// valid[p] holds one full column of len(cs) shares per accepted player.
	valid := make([][]*core.DecryptionShare, 0, r.params.N)
	for out := range results {
		if out.err != nil {
			rejected = append(rejected, out.index)
			r.met.shareRejected()
			continue
		}
		valid = append(valid, out.shares)
	}
	if len(valid) < r.params.T {
		return nil, rejected, fmt.Errorf("%w: %d of %d", ErrNotEnoughShares, len(valid), r.params.N)
	}

	msgs = make([][]byte, len(cs))
	quorum := make([]*core.DecryptionShare, r.params.T)
	for j := range cs {
		for p := 0; p < r.params.T; p++ {
			quorum[p] = valid[p][j]
		}
		msgs[j], err = r.params.Recombine(quorum, cs[j])
		if err != nil {
			return nil, rejected, fmt.Errorf("cluster: recombining ciphertext %d: %w", j, err)
		}
	}
	return msgs, rejected, nil
}

// fetchShares performs one batched shares request against a player and
// decodes the full column of shares, validating all GT elements with one
// batched subgroup check.
func (r *Recombiner) fetchShares(addr, id string, us [][]byte) ([]*core.DecryptionShare, error) {
	var resp response
	if err := r.roundTrip(addr, &request{Op: "shares", ID: id, Us: us}, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	if len(resp.Shares) != len(us) {
		return nil, fmt.Errorf("cluster: %d shares for %d ciphertexts", len(resp.Shares), len(us))
	}

	// Column-validate the 3k GT elements (share value + two proof
	// commitments per item) in one pass.
	pp := r.params.Public.Pairing
	raws := make([][]byte, 0, 3*len(resp.Shares))
	for i := range resp.Shares {
		it := &resp.Shares[i]
		if !it.OK {
			return nil, fmt.Errorf("cluster: share %d: %s", i, it.Error)
		}
		if it.Proof == nil {
			return nil, fmt.Errorf("cluster: share %d missing proof", i)
		}
		raws = append(raws, it.G, it.Proof.W1, it.Proof.W2)
	}
	gs, gtErrs, err := wire.UnmarshalGTBatch(pp, raws)
	if err != nil {
		return nil, err
	}
	for i, e := range gtErrs {
		if e != nil {
			return nil, fmt.Errorf("cluster: share %d: %w", i/3, e)
		}
	}

	shares := make([]*core.DecryptionShare, len(resp.Shares))
	for i := range resp.Shares {
		it := &resp.Shares[i]
		v, err := wire.UnmarshalG1(pp.Curve(), it.Proof.V)
		if err != nil {
			return nil, fmt.Errorf("cluster: share %d proof v: %w", i, err)
		}
		e, err := wire.UnmarshalScalar(it.Proof.E, pp.Q())
		if err != nil {
			return nil, fmt.Errorf("cluster: share %d proof e: %w", i, err)
		}
		shares[i] = &core.DecryptionShare{
			Index: resp.Index,
			G:     gs[3*i],
			Proof: &core.ShareProof{W1: gs[3*i+1], W2: gs[3*i+2], E: e, V: v},
		}
	}
	return shares, nil
}
