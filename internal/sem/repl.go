package sem

// Replication over the SEM protocol: the server-side handlers for the
// repl.append / repl.snapshot / repl.status ops, the matching client
// methods, and the dialer that lets a repl.Leader speak to followers
// through an ordinary SEM client connection. The application logic lives
// in internal/repl; this file only moves its records across the wire.

import (
	"time"

	"repro/internal/core"
	"repro/internal/repl"
)

// replAppend applies a leader's record batch to the local follower. The
// whole batch travels inside ONE item on purpose: the server fans a
// frame's items across workers in parallel, and replication must apply in
// sequence order.
func (s *Server) replAppend(_ string, payload []byte) ([]byte, error) {
	if s.cfg.Repl == nil {
		return nil, unsupported("replication not enabled (no journal)")
	}
	leaderEpoch, recs, err := repl.ParseRecords(payload)
	if err != nil {
		return nil, err
	}
	return nil, internal(s.cfg.Repl.ApplyAppend(leaderEpoch, recs))
}

// replSnapshot feeds one chunk of a leader's full-state transfer.
func (s *Server) replSnapshot(_ string, payload []byte) ([]byte, error) {
	if s.cfg.Repl == nil {
		return nil, unsupported("replication not enabled (no journal)")
	}
	c, err := repl.ParseSnapshotChunk(payload)
	if err != nil {
		return nil, err
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
	return repl.PackStatus(repl.Status{Epoch: epoch, LastSeq: lastSeq, Leader: isLeader}), nil
}

// ReplStatus asks the SEM for its replication position (epoch, last
// durable sequence number).
func (o *ops) ReplStatus() (epoch, lastSeq uint64, err error) {
	st, err := call(o, opReplStatus, "", nil, repl.ParseStatus)
	return st.Epoch, st.LastSeq, err
}

// ReplAppend ships a contiguous batch of journal records to the SEM,
// packed into a single item so the follower applies them in order. The
// error unwraps to repl.ErrStaleEpoch / repl.ErrSeqGap when the follower
// refused the batch.
func (o *ops) ReplAppend(leaderEpoch uint64, recs []core.ReplRecord) error {
	payload, err := repl.AppendRecords(nil, leaderEpoch, recs)
	if err != nil {
		return err
	}
	_, err = o.t.one(opReplAppend, "", payload)
	return err
}

// ReplSnapshot ships one chunk of a full-state transfer to the SEM.
func (o *ops) ReplSnapshot(chunk *repl.SnapshotChunk) error {
	payload, err := repl.MarshalSnapshotChunk(chunk)
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
