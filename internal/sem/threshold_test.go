package sem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/wire"
)

// thresholdFixture is one player of a (2, 3) threshold system served by a
// sem.Server, plus a ciphertext point to ask shares for.
type thresholdFixture struct {
	pp      *pairing.Params
	params  *core.ThresholdParams
	srv     *Server
	addr    string
	u       *curve.Point
	metrics *obs.Registry
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
	player, err := core.NewThresholdPlayer(pkg.Params(), 2, core.NewRegistry())
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
	metrics := obs.NewRegistry()
	srv, addr := serveTCP(t, Config{Registry: player.Registry(), Threshold: player, Pairing: pp, Metrics: metrics})
	u, err := pp.Curve().RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &thresholdFixture{pp: pp, params: pkg.Params(), srv: srv, addr: addr, u: u, metrics: metrics}
}

// TestThresholdRevokeOverTheWire: the revoke and unrevoke ops a player
// serves act on the registry its shares are checked against. A revoked
// identity's share request is refused with the typed core.ErrRevoked at the
// client, its Miller program is dropped, and after unrevoke it is served
// again from a program built afresh.
func TestThresholdRevokeOverTheWire(t *testing.T) {
	f := newThresholdFixture(t)
	c, err := Dial(f.addr, f.pp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	share := func() error {
		ds, err := c.ThresholdShare(testID, f.u)
		if err != nil {
			return err
		}
		ds.Index = 2
		return f.params.VerifyShareProof(testID, f.u, ds)
	}
	cache := func(when string, entries, misses int) {
		t.Helper()
		var sb strings.Builder
		if err := f.metrics.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`lru_entries{cache="player_pairers"} %d`, entries),
			fmt.Sprintf(`lru_misses_total{cache="player_pairers"} %d`, misses),
		} {
			if !strings.Contains(sb.String(), want+"\n") {
				t.Fatalf("%s: metrics missing %q:\n%s", when, want, sb.String())
			}
		}
	}

	if err := share(); err != nil {
		t.Fatal(err)
	}
	cache("served", 1, 1)
	if err := c.Revoke(testID, "key lost"); err != nil {
		t.Fatal(err)
	}
	cache("revoked", 0, 1)
	if err := share(); !errors.Is(err, core.ErrRevoked) || !errors.Is(err, ErrRemote) {
		t.Fatalf("share for a revoked identity: %v, want core.ErrRevoked", err)
	}
	if revoked, err := c.Status(testID); err != nil || !revoked {
		t.Fatalf("status = %v, %v; want revoked", revoked, err)
	}
	cache("refused", 0, 1)
	if err := c.Unrevoke(testID); err != nil {
		t.Fatal(err)
	}
	if err := share(); err != nil {
		t.Fatalf("share after unrevoke: %v", err)
	}
	cache("reinstated", 1, 2)
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
		ThresholdShareBatch([]string, []*curve.Point) ([]ShareReply, []error, error)
	}{"pool": pool, "sharded": sharded} {
		ds, err := client.ThresholdShare(testID, f.u)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verify(ds)
		if _, err := client.ThresholdShare("nobody@example.com", f.u); !errors.Is(err, core.ErrUnknownIdentity) || !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: unknown identity: %v", name, err)
		}
		replies, errs, err := client.ThresholdShareBatch([]string{testID, "nobody@example.com", testID}, []*curve.Point{f.u, f.u, f.u})
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], core.ErrUnknownIdentity) || replies[1].Share != nil {
			t.Fatalf("%s: batch errs = %v", name, errs)
		}
		if errs := DecodeShares(f.pp.Curve(), replies); errs[0] != nil || errs[1] != nil || errs[2] != nil {
			t.Fatalf("%s: DecodeShares errs = %v", name, errs)
		}
		verify(replies[0].Share)
		verify(replies[2].Share)
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

// TestServingThresholdShareTakesNoSquareRoot: a player reads U's abscissa
// alone (wire.UnmarshalPairingX), so answering threshold_share — a first
// request, which builds the identity's program, and a warm one — moves the
// process's square-root count not at all, and the player's /metrics says so
// as curve_square_roots_total beside curve_subgroup_checks_total. The
// answer is the request's raw bytes; decoding its V is the recombiner's
// root, not the player's.
func TestServingThresholdShareTakesNoSquareRoot(t *testing.T) {
	f := newThresholdFixture(t)
	conn, _, _ := rawConn(t, f.addr, wire.V2Version)
	var enc wire.FrameEncoder
	var dec wire.FrameDecoder
	exported := func() string {
		t.Helper()
		var sb strings.Builder
		if err := f.metrics.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "curve_square_roots_total ") {
				return line
			}
		}
		t.Fatalf("no curve_square_roots_total series on /metrics:\n%s", sb.String())
		return ""
	}
	before, roots := exported(), curve.SquareRoots()
	for _, when := range []string{"first", "warm"} {
		frame, err := enc.EncodeRequest(opThresholdShare, []wire.ReqItem{{ID: []byte(testID), Payload: f.u.Marshal()}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_, items, _, err := dec.ReadResponse(conn, 0, 0)
		if err != nil || len(items) != 1 || items[0].Status != statusOK {
			t.Fatalf("%s share: items %+v, err %v", when, items, err)
		}
		if n := curve.SquareRoots() - roots; n != 0 {
			t.Fatalf("serving a %s threshold_share took %d square roots, want 0", when, n)
		}
	}
	if after := exported(); after != before {
		t.Fatalf("curve_square_roots_total moved from %q to %q while serving shares", before, after)
	}
}
