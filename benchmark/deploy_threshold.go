package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/parallel"
)

// thresholdSpec sizes the threshold-decryption workload.
type thresholdSpec struct {
	params  string
	t, n    int
	ids     int
	callers int
}

// thresholdDeployment is n PlayerServers on loopback TCP, a Recombiner over
// them, and one pre-encrypted ciphertext per identity.
type thresholdDeployment struct {
	spec   thresholdSpec
	pp     *pairing.Params
	params *core.ThresholdParams

	ids  []string
	msgs [][]byte
	cts  []*bf.BasicCiphertext
	seq  []uint32

	// shares[i] are identity i's n key shares, kept for layer replay (the
	// players hold their own copies).
	shares [][]*core.KeyShare

	wire    atomic.Int64
	players []*cluster.PlayerServer
	serveWG sync.WaitGroup
	rec     *cluster.Recombiner
	reg     *obs.Registry

	enrollDur, registerDur time.Duration
}

var thresholdClasses = []string{"decrypt"}

func newThresholdDeployment(spec thresholdSpec, g *gen, instrument bool) (_ *thresholdDeployment, err error) {
	d := &thresholdDeployment{spec: spec}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.pp, err = pairing.ByName(spec.params); err != nil {
		return nil, err
	}
	pkg, err := core.SetupThreshold(g.stream("threshold-setup"), d.pp, msgLen, spec.t, spec.n)
	if err != nil {
		return nil, err
	}
	d.params = pkg.Params()
	if instrument {
		d.reg = obs.NewRegistry()
	}

	// The PKG's work: one key share per (identity, player), one ciphertext
	// per identity. Identities are independent, so they fan across procs.
	start := time.Now()
	n := spec.ids
	d.ids, d.msgs, d.cts, d.shares = make([]string, n), make([][]byte, n), make([]*bf.BasicCiphertext, n), make([][]*core.KeyShare, n)
	errs := make([]error, n)
	parallel.Fan(n, func(i int) {
		id := fmt.Sprintf("t%04d@bench", i)
		shares := make([]*core.KeyShare, spec.n)
		for j := range shares {
			if shares[j], errs[i] = pkg.ExtractShare(id, j+1); errs[i] != nil {
				return
			}
		}
		st := g.stream("threshold/" + id)
		msg := st.bytes(msgLen)
		ct, err := d.params.Public.EncryptBasic(st, id, msg)
		if err != nil {
			errs[i] = err
			return
		}
		d.ids[i], d.msgs[i], d.cts[i], d.shares[i] = id, msg, ct, shares
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, id := range d.ids {
		g.record([]byte(id))
		g.record(d.cts[i].Marshal())
	}
	d.enrollDur = time.Since(start)

	ops := g.stream("ops")
	d.seq = make([]uint32, seqLen)
	for k := range d.seq {
		d.seq[k] = uint32(ops.intn(spec.ids))
		g.record([]byte{byte(d.seq[k] >> 8), byte(d.seq[k])})
	}

	// The players' work: each verifies and installs its own shares (the
	// paper's Keygen check), all players at once as separate servers would.
	start = time.Now()
	addrs := make([]string, spec.n)
	installErrs := make([]error, spec.n)
	var wg sync.WaitGroup
	for j := range spec.n {
		p, err := cluster.NewPlayerServer(d.params, j+1)
		if err != nil {
			return nil, err
		}
		if instrument {
			p.Instrument(d.reg)
		}
		ln, err := listen(&d.wire)
		if err != nil {
			return nil, err
		}
		addrs[j] = ln.Addr().String()
		d.players = append(d.players, p)
		d.serveWG.Add(1)
		go func() {
			defer d.serveWG.Done()
			_ = p.Serve(ln) // returns when close() closes the player
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, shares := range d.shares {
				if err := p.Install(shares[j]); err != nil {
					installErrs[j] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range installErrs {
		if err != nil {
			return nil, err
		}
	}
	d.registerDur = time.Since(start)

	if d.rec, err = cluster.NewRecombiner(d.params, addrs, 10*time.Second); err != nil {
		return nil, err
	}
	if instrument {
		d.rec.Instrument(d.reg)
	}
	return d, nil
}

func (d *thresholdDeployment) classes() []string { return thresholdClasses }
func (d *thresholdDeployment) callers() int      { return d.spec.callers }
func (d *thresholdDeployment) wireBytes() int64  { return d.wire.Load() }

// warm decrypts a few ciphertexts so player connections are dialed and the
// verification-key pairing programs are built before the first timed op.
func (d *thresholdDeployment) warm() error {
	for i := range min(d.spec.ids, 2*d.spec.callers) {
		if err := d.decrypt(i); err != nil {
			return fmt.Errorf("warm-up decrypt: %w", err)
		}
	}
	return nil
}

func (d *thresholdDeployment) op(k int64, _ int) (int, error) {
	return 0, d.decrypt(int(d.seq[k%int64(len(d.seq))]))
}

// decrypt runs one robust threshold decryption and checks the plaintext.
// Every player is honest here, so a rejected share is a failure too.
func (d *thresholdDeployment) decrypt(i int) error {
	msg, rejected, err := d.rec.Decrypt(d.ids[i], d.cts[i])
	if err != nil {
		return err
	}
	if len(rejected) > 0 {
		return fmt.Errorf("decrypt for %s rejected honest players %v", d.ids[i], rejected)
	}
	if !bytes.Equal(msg, d.msgs[i]) { //cryptolint:public (oracle check: the benchmark generated this plaintext)
		return fmt.Errorf("plaintext for %s differs from the message encrypted", d.ids[i])
	}
	return nil
}

func (d *thresholdDeployment) close() {
	if d.rec != nil {
		_ = d.rec.Close()
	}
	for _, p := range d.players {
		_ = p.Close()
	}
	d.serveWG.Wait()
}
