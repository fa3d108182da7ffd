package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// gen is the benchmark's only source of inputs. Everything a workload feeds
// the system — every public rng parameter (NewMediatedPKG, SplitExtract,
// Keygen, SetupThreshold, Encrypt*) and the op/identity sequence — is read
// from streams forked off one seed, so op k is the same on every run and on
// every commit. Forks are keyed by label: how many bytes one consumer reads
// never shifts what another consumer sees, which keeps the op sequence stable
// when a later change makes key generation draw more or fewer random bytes.
//
// The generator also fingerprints what it hands out (record), so two runs
// can be compared for byte-identical inputs.
type gen struct {
	seed   int64
	digest hash.Hash
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, digest: sha256.New()}
}

// stream forks the deterministic byte stream named label.
func (g *gen) stream(label string) *stream {
	h := sha256.New()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(g.seed))
	h.Write(s[:])
	h.Write([]byte(label))
	st := &stream{}
	h.Sum(st.key[:0])
	return st
}

// record folds generated input bytes into the run's input fingerprint.
func (g *gen) record(b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	g.digest.Write(n[:])
	g.digest.Write(b)
}

// fingerprint is the SHA-256 of everything recorded so far.
func (g *gen) fingerprint() []byte { return g.digest.Sum(nil) }

// stream is SHA-256 in counter mode: block i is SHA-256(key ‖ i). It is an
// io.Reader that never fails, which is all the repository's rng parameters
// ask for; the keys it produces protect nothing.
type stream struct {
	key [32]byte
	ctr uint64
	buf []byte
}

func (s *stream) Read(p []byte) (int, error) {
	s.fill(p)
	return len(p), nil
}

// fill writes the next len(p) bytes of the stream into p.
func (s *stream) fill(p []byte) {
	for i := range p {
		if len(s.buf) == 0 {
			var in [40]byte
			copy(in[:32], s.key[:])
			binary.BigEndian.PutUint64(in[32:], s.ctr)
			s.ctr++
			sum := sha256.Sum256(in[:])
			s.buf = sum[:]
		}
		p[i] = s.buf[0]
		s.buf = s.buf[1:]
	}
}

// intn returns a uniform integer in [0, n) by rejection sampling.
func (s *stream) intn(n int) int {
	limit := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		var b [8]byte
		s.fill(b[:])
		if v := binary.BigEndian.Uint64(b[:]); v < limit {
			return int(v % uint64(n))
		}
	}
}

// bytes returns the next n bytes of the stream.
func (s *stream) bytes(n int) []byte {
	b := make([]byte, n)
	s.fill(b)
	return b
}
