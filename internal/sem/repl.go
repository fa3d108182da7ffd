package sem

// Replication over the SEM protocol: the server-side handlers for the
// repl.append / repl.snapshot / repl.status ops, the matching client
// methods, and the dialer that lets a repl.Leader speak to followers
// through an ordinary SEM client connection. The application logic lives
// in internal/repl; this file only moves its records across the wire.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/wire"
)

// wireReplOp maps a journal op name to its wire op byte.
func wireReplOp(op string) (byte, bool) {
	switch op {
	case "revoke":
		return wire.ReplOpRevoke, true
	case "unrevoke":
		return wire.ReplOpUnrevoke, true
	default:
		return 0, false
	}
}

// coreReplOp inverts wireReplOp.
func coreReplOp(b byte) (string, bool) {
	switch b {
	case wire.ReplOpRevoke:
		return "revoke", true
	case wire.ReplOpUnrevoke:
		return "unrevoke", true
	default:
		return "", false
	}
}

// replAppend applies a leader's record batch to the local follower. The
// whole batch travels inside ONE item on purpose: the server fans a
// frame's items across workers in parallel, and replication must apply in
// sequence order.
func (s *Server) replAppend(_ string, payload []byte) ([]byte, error) {
	if s.cfg.Repl == nil {
		return nil, unsupported("replication not enabled (no journal)")
	}
	leaderEpoch, wrecs, err := wire.ParseReplRecords(payload)
	if err != nil {
		return nil, err
	}
	recs := make([]core.ReplRecord, len(wrecs))
	for i, w := range wrecs {
		op, ok := coreReplOp(w.Op)
		if !ok {
			return nil, fmt.Errorf("unknown replication op byte %#x", w.Op)
		}
		recs[i] = core.ReplRecord{
			Seq:    w.Seq,
			Epoch:  w.Epoch,
			Op:     op,
			ID:     w.ID,
			Reason: w.Reason,
			When:   time.Unix(0, w.WhenUnixNano).UTC(),
		}
	}
	return nil, internal(s.cfg.Repl.ApplyAppend(leaderEpoch, recs))
}

// replSnapshot feeds one chunk of a leader's full-state transfer.
func (s *Server) replSnapshot(_ string, payload []byte) ([]byte, error) {
	if s.cfg.Repl == nil {
		return nil, unsupported("replication not enabled (no journal)")
	}
	wc, err := wire.ParseReplSnapshotChunk(payload)
	if err != nil {
		return nil, err
	}
	entries := make([]core.RevocationEntry, len(wc.Entries))
	for i, e := range wc.Entries {
		entries[i] = core.RevocationEntry{ID: e.ID, Reason: e.Reason, When: time.Unix(0, e.WhenUnixNano).UTC()}
	}
	c := &repl.SnapshotChunk{
		Epoch:   wc.Epoch,
		BaseSeq: wc.BaseSeq,
		Total:   int(wc.Total),
		Index:   int(wc.Index),
		Chunks:  int(wc.Chunks),
		Entries: entries,
	}
	return nil, internal(s.cfg.Repl.ApplySnapshotChunk(c))
}

// replStatus reports this daemon's replication position, flagging whether
// it is the fleet's active leader — the signal ShardedClient probes for
// when the ring's leader designation has drifted from the daemon actually
// running with -repl-leader (see shard.Ring.Leader for the hazard).
func (s *Server) replStatus(string, []byte) ([]byte, error) {
	if s.cfg.Repl == nil {
		return nil, unsupported("replication not enabled (no journal)")
	}
	epoch, lastSeq := s.cfg.Repl.Status()
	isLeader := s.cfg.Leader != nil && !s.cfg.Leader.Deposed()
	return wire.PackReplStatus(wire.ReplStatus{Epoch: epoch, LastSeq: lastSeq, Leader: isLeader}), nil
}

// ReplStatus asks the SEM for its replication position (epoch, last
// durable sequence number).
func (o *ops) ReplStatus() (epoch, lastSeq uint64, err error) {
	raw, err := o.t.one(opReplStatus, "", nil)
	if err != nil {
		return 0, 0, err
	}
	st, err := wire.ParseReplStatus(raw)
	if err != nil {
		return 0, 0, err
	}
	return st.Epoch, st.LastSeq, nil
}

// ReplAppend ships a contiguous batch of journal records to the SEM,
// packed into a single item so the follower applies them in order. The
// error unwraps to repl.ErrStaleEpoch / repl.ErrSeqGap when the follower
// refused the batch.
func (o *ops) ReplAppend(leaderEpoch uint64, recs []core.ReplRecord) error {
	wrecs := make([]wire.ReplRecord, len(recs))
	for i, r := range recs {
		op, ok := wireReplOp(r.Op)
		if !ok {
			return fmt.Errorf("sem: record %d has unknown replication op %q", i, r.Op)
		}
		wrecs[i] = wire.ReplRecord{
			Epoch:        r.Epoch,
			Seq:          r.Seq,
			Op:           op,
			ID:           r.ID,
			Reason:       r.Reason,
			WhenUnixNano: r.When.UnixNano(),
		}
	}
	payload, err := wire.AppendReplRecords(nil, leaderEpoch, wrecs)
	if err != nil {
		return err
	}
	_, err = o.t.one(opReplAppend, "", payload)
	return err
}

// ReplSnapshot ships one chunk of a full-state transfer to the SEM.
func (o *ops) ReplSnapshot(chunk *repl.SnapshotChunk) error {
	entries := make([]wire.ReplEntry, len(chunk.Entries))
	for i, e := range chunk.Entries {
		entries[i] = wire.ReplEntry{ID: e.ID, Reason: e.Reason, WhenUnixNano: e.When.UnixNano()}
	}
	wc := &wire.ReplSnapshotChunk{
		Epoch:   chunk.Epoch,
		BaseSeq: chunk.BaseSeq,
		Total:   uint32(chunk.Total),
		Index:   uint32(chunk.Index),
		Chunks:  uint32(chunk.Chunks),
		Entries: entries,
	}
	payload, err := wire.MarshalReplSnapshotChunk(wc)
	if err != nil {
		return err
	}
	_, err = o.t.one(opReplSnapshot, "", payload)
	return err
}

// ReplDialer returns the peer dialer a repl.Leader uses to reach its
// followers over the SEM protocol: one eagerly dialed connection per
// follower (a *Pool is a repl.Peer). timeout covers the connection
// attempt; replication ops run under the pool's default op deadline, and a
// call whose connection dies is replayed once on a fresh one — safe,
// because a follower skips redelivered records and refuses an
// out-of-sequence snapshot chunk, which restarts the transfer.
func ReplDialer(timeout time.Duration) func(addr string) (repl.Peer, error) {
	return func(addr string) (repl.Peer, error) {
		p, err := Dial(addr, nil, timeout)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}
