package repro

// Benchmarks for the extension features (DESIGN.md §6): the conclusion's
// conjectured mediated GM and Rabin schemes, the dual-revocable
// signcryption composition, and the dealerless DKG setup.

import (
	"crypto/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/gm"
	"repro/internal/pairing"
	"repro/internal/rabin"
)

var (
	gmOnce sync.Once
	gmKey  *gm.PrivateKey
	gmUser *gm.HalfKey
	gmSEM  *core.GMSEM
	gmErr  error
)

func gmWorld(b *testing.B) (*gm.PrivateKey, *gm.HalfKey, *core.GMSEM) {
	b.Helper()
	gmOnce.Do(func() {
		gmKey, gmErr = gm.GenerateKey(rand.Reader, 512)
		if gmErr != nil {
			return
		}
		var semHalf *gm.HalfKey
		gmUser, semHalf, gmErr = gm.Split(rand.Reader, gmKey)
		if gmErr != nil {
			return
		}
		gmSEM = core.NewGMSEM(core.NewRegistry())
		gmSEM.Register("bench@example.com", semHalf)
	})
	if gmErr != nil {
		b.Fatal(gmErr)
	}
	return gmKey, gmUser, gmSEM
}

func BenchmarkExtensionGM(b *testing.B) {
	key, user, sem := gmWorld(b)
	msg := []byte("gm-bench-payload")
	cs, err := key.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt-16B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Public.Encrypt(rand.Reader, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mediated-decrypt-16B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GMDecrypt(sem, "bench@example.com", key.Public, user, cs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	rabinOnce sync.Once
	rabinKey  *rabin.PrivateKey
	rabinUser *rabin.HalfKey
	rabinSEM  *core.RabinSEM
	rabinErr  error
)

func rabinWorld(b *testing.B) (*rabin.PrivateKey, *rabin.HalfKey, *core.RabinSEM) {
	b.Helper()
	rabinOnce.Do(func() {
		rabinKey, rabinErr = rabin.GenerateKey(rand.Reader, 1024)
		if rabinErr != nil {
			return
		}
		var semHalf *rabin.HalfKey
		rabinUser, semHalf, rabinErr = rabin.Split(rand.Reader, rabinKey)
		if rabinErr != nil {
			return
		}
		rabinSEM = core.NewRabinSEM(core.NewRegistry())
		rabinSEM.Register("bench@example.com", semHalf)
	})
	if rabinErr != nil {
		b.Fatal(rabinErr)
	}
	return rabinKey, rabinUser, rabinSEM
}

func BenchmarkExtensionRabin(b *testing.B) {
	key, user, sem := rabinWorld(b)
	msg := []byte("rabin-saep benchmark payload")
	ct, err := key.Public.Encrypt(rand.Reader, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Public.Encrypt(rand.Reader, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mediated-decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RabinDecrypt(sem, "bench@example.com", key.Public, user, ct, len(msg)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mediated-sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RabinSign(sem, "bench@example.com", key.Public, user, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSigncryption(b *testing.B) {
	pp, err := pairing.Paper()
	if err != nil {
		b.Fatal(err)
	}
	reg := core.NewRegistry()
	pkg, err := core.NewMediatedPKG(rand.Reader, pp, 128)
	if err != nil {
		b.Fatal(err)
	}
	ibeSEM := core.NewIBESEM(pkg.Public(), reg)
	bobUser, bobSEM, err := pkg.SplitExtract(rand.Reader, "bob@example.com")
	if err != nil {
		b.Fatal(err)
	}
	ibeSEM.Register(bobSEM)
	ta := core.NewGDHAuthority(pp)
	gdhSEM := core.NewGDHSEM(pp, reg)
	alice, aliceSEM, err := ta.Keygen(rand.Reader, "alice@example.com")
	if err != nil {
		b.Fatal(err)
	}
	gdhSEM.Register(aliceSEM)
	sc := core.NewSigncrypter(pkg.Public(), ibeSEM, gdhSEM)
	msg := []byte("signcrypted benchmark message")
	ct, err := sc.Signcrypt(rand.Reader, alice, "bob@example.com", msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("signcrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.Signcrypt(rand.Reader, alice, "bob@example.com", msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("designcrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.Designcrypt(bobUser, "alice@example.com", alice.Public, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDKG(b *testing.B) {
	pp, err := pairing.Fast()
	if err != nil {
		b.Fatal(err)
	}
	for _, tn := range []struct{ t, n int }{{2, 3}, {3, 5}, {5, 9}} {
		b.Run(benchLabel(tn.t, tn.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dkg.Run(rand.Reader, pp, tn.t, tn.n, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchLabel(t, n int) string {
	digits := "0123456789"
	return "t=" + string(digits[t]) + ",n=" + string(digits[n])
}

// BenchmarkCluster measures end-to-end distributed threshold decryption
// over loopback TCP — the networked form of F2's recombination.
func BenchmarkCluster(b *testing.B) {
	pp, err := pairing.Fast()
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := core.SetupThreshold(rand.Reader, pp, 32, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	params := pkg.Params()
	addrs := make([]string, 5)
	var servers []*cluster.PlayerServer
	for i := 1; i <= 5; i++ {
		srv, err := cluster.NewPlayerServer(params, i)
		if err != nil {
			b.Fatal(err)
		}
		ks, err := pkg.ExtractShare("bench@example.com", i)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Install(ks); err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		addrs[i-1] = ln.Addr().String()
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()
	rec, err := cluster.NewRecombiner(params, addrs, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = rec.Close() }()
	msg := make([]byte, 32)
	ct, err := params.Public.EncryptBasic(rand.Reader, "bench@example.com", msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rec.Decrypt("bench@example.com", ct); err != nil {
			b.Fatal(err)
		}
	}
}
