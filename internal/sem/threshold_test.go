package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// thresholdFixture is one player of a (2, 3) threshold system served by a
// sem.Server, plus a ciphertext point to ask shares for.
type thresholdFixture struct {
	pp     *pairing.Params
	params *core.ThresholdParams
	srv    *Server
	addr   string
	u      *curve.Point
}

func newThresholdFixture(t *testing.T) *thresholdFixture {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.SetupThreshold(rand.Reader, pp, msgLen, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	player, err := core.NewThresholdPlayer(pkg.Params(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := pkg.ExtractShare(testID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Install(ks); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Registry: core.NewRegistry(), Threshold: player, Pairing: pp})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &thresholdFixture{pp: pp, params: pkg.Params(), srv: srv, addr: ln.Addr().String(), u: u}
}

// TestThresholdShareOp fetches shares through both client flavours, single
// and batched: every share verifies once stamped with the player that was
// asked — and with no other index — and failures keep their typed class.
func TestThresholdShareOp(t *testing.T) {
	f := newThresholdFixture(t)
	pool := NewPool(f.addr, f.pp, PoolConfig{})
	defer func() { _ = pool.Close() }()
	sharded, err := NewShardedClient([]string{f.addr}, f.pp, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sharded.Close() }()

	verify := func(ds *core.DecryptionShare) {
		t.Helper()
		if ds.Index != 0 {
			t.Fatalf("share arrived with index %d; the wire carries none", ds.Index)
		}
		ds.Index = 2
		if err := f.params.VerifyShareProof(testID, f.u, ds); err != nil {
			t.Fatalf("share of the player asked does not verify: %v", err)
		}
		ds.Index = 1
		if err := f.params.VerifyShareProof(testID, f.u, ds); !errors.Is(err, core.ErrProofInvalid) {
			t.Fatalf("share verified against another player's key: %v", err)
		}
	}
	for name, client := range map[string]interface {
		ThresholdShare(string, *curve.Point) (*core.DecryptionShare, error)
		ThresholdShareBatch([]string, []*curve.Point) ([]*core.DecryptionShare, []error, error)
	}{"pool": pool, "sharded": sharded} {
		ds, err := client.ThresholdShare(testID, f.u)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verify(ds)
		if _, err := client.ThresholdShare("nobody@example.com", f.u); !errors.Is(err, core.ErrUnknownIdentity) || !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: unknown identity: %v", name, err)
		}
		shares, errs, err := client.ThresholdShareBatch([]string{testID, "nobody@example.com", testID}, []*curve.Point{f.u, f.u, f.u})
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], core.ErrUnknownIdentity) || shares[1] != nil {
			t.Fatalf("%s: batch errs = %v", name, errs)
		}
		verify(shares[0])
		verify(shares[2])
	}
}

// TestThresholdShareValidatesEveryElement scripts a player that answers with
// a well-formed share in which one element at a time has left its group or
// range: the client must refuse each before it reaches proof arithmetic. The
// one element with no group to leave is V, the evaluation point of the proof
// check's pairing: the client refuses a V that is O or no point at all, and
// hands one of cofactor order to the proof check, which fails it.
func TestThresholdShareValidatesEveryElement(t *testing.T) {
	f := newThresholdFixture(t)
	honest, err := f.srv.thresholdShare(testID, f.u.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	gt, point, scalar := shareWidths(f.pp)
	outsider := f.pp.Field().NewElement(big.NewInt(2), big.NewInt(3)).Bytes()
	small := curvetest.RandomCofactorPoint(f.pp.Curve())
	splice := func(at int, field []byte) []byte {
		out := bytes.Clone(honest)
		copy(out[at:], field)
		return out
	}
	answers := map[string][]byte{
		"honest":              honest,
		"truncated":           honest[:len(honest)-1],
		"G outside GT":        splice(0, outsider),
		"W1 outside GT":       splice(gt, outsider),
		"W2 outside GT":       splice(2*gt, outsider),
		"V at infinity":       splice(3*gt, f.pp.Curve().Infinity().Marshal()),
		"V with a bad tag":    splice(3*gt, []byte{0x09}),
		"V of cofactor order": splice(3*gt, small.Marshal()),
		"E not below q":       splice(3*gt+point, f.pp.Q().FillBytes(make([]byte, scalar))),
		"one byte too long":   append(bytes.Clone(honest), 0),
	}
	for name, answer := range answers {
		addr := fakeSEM(t, DefaultMaxBatch, func(conn net.Conn) {
			answerFrames(conn, func(_ byte, items []wire.ReqItem) []wire.RespItem {
				resp := make([]wire.RespItem, len(items))
				for i := range resp {
					resp[i] = wire.RespItem{Status: statusOK, Data: answer}
				}
				return resp
			})
		})
		c, err := Dial(addr, f.pp, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := c.ThresholdShare(testID, f.u)
		_ = c.Close()
		switch name {
		case "honest":
			if err != nil {
				t.Errorf("honest answer refused: %v", err)
			}
			continue
		case "V of cofactor order":
			if err != nil {
				t.Errorf("%s: err = %v, want it decoded and left to the proof check", name, err)
				continue
			}
			ds.Index = 2
			if err := f.params.VerifyShareProof(testID, f.u, ds); !errors.Is(err, core.ErrProofInvalid) {
				t.Errorf("%s: VerifyShareProof = %v, want ErrProofInvalid", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
}
