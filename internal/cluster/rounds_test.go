package cluster

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// The contract of the two-round flow, checked from outside: who was asked
// (the recombiner's per-player fetch count, cross-checked against what each
// live player's server says it served), who was turned away, how many
// rounds it took and what came out.

// tally is the recombiner's and the players' request bookkeeping at one
// moment; the difference of two brackets one decryption.
type tally struct {
	fetched, served [nn]uint64
	rounds          uint64
}

func takeTally(d *deployment, r *Recombiner) (t tally) {
	for i := 1; i <= nn; i++ {
		t.fetched[i-1], t.served[i-1] = r.fetched(i), d.served(i)
	}
	t.rounds = r.rounds()
	return t
}

// checkDecryption runs one decryption of msg's ciphertext with the given
// players faulty (answering is true when a faulty player's server still
// dispatches requests — a liar's does, a crashed or hung player's does not)
// and checks everything the contract promises about it. It returns the
// number of rounds and the players asked.
func checkDecryption(t *testing.T, d *deployment, r *Recombiner, faulty []int, answering bool) (rounds int, asked []int) {
	t.Helper()
	msg := bytes.Repeat([]byte{0x7E}, msgLen)
	c, err := d.params.Public.EncryptBasic(rand.Reader, ident, msg)
	if err != nil {
		t.Fatal(err)
	}
	before := takeTally(d, r)
	got, rejected, err := r.Decrypt(ident, c)
	after := takeTally(d, r)

	for i := 1; i <= nn; i++ {
		fetched := after.fetched[i-1] - before.fetched[i-1]
		if fetched > 1 {
			t.Fatalf("player %d was asked %d times in one decryption", i, fetched)
		}
		if fetched == 1 {
			asked = append(asked, i)
		}
		if live := answering || !slices.Contains(faulty, i); live && after.served[i-1]-before.served[i-1] != fetched {
			t.Fatalf("player %d served %d requests, the recombiner counts %d", i, after.served[i-1]-before.served[i-1], fetched)
		}
	}
	rounds = int(after.rounds - before.rounds)
	if rounds < 1 || rounds > 2 {
		t.Fatalf("%d fetch rounds, want 1 or 2", rounds)
	}
	if rounds == 1 && len(asked) != tt {
		t.Fatalf("one round asked players %v, want exactly t = %d", asked, tt)
	}
	if rounds == 2 && len(asked) != nn {
		t.Fatalf("two rounds asked players %v, want all %d", asked, nn)
	}
	for _, i := range rejected {
		if !slices.Contains(faulty, i) {
			t.Fatalf("honest player %d rejected (rejected %v, faulty %v)", i, rejected, faulty)
		}
		if !slices.Contains(asked, i) {
			t.Fatalf("player %d rejected without being asked (rejected %v, asked %v)", i, rejected, asked)
		}
	}
	for _, i := range asked {
		if slices.Contains(faulty, i) && !slices.Contains(rejected, i) {
			t.Fatalf("faulty player %d was asked and not rejected (rejected %v)", i, rejected)
		}
	}
	if !slices.IsSorted(rejected) {
		t.Fatalf("rejected = %v, want ascending order", rejected)
	}
	if nn-len(faulty) >= tt {
		if err != nil {
			t.Fatalf("%d honest players up, faulty %v: %v", nn-len(faulty), faulty, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("faulty %v: decrypted %x, want %x — a share no check covered was combined", faulty, got, msg)
		}
	} else if !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("%d honest players up, faulty %v: err = %v, want ErrNotEnoughShares", nn-len(faulty), faulty, err)
	}
	return rounds, asked
}

// subset lists the players whose bit is set in mask.
func subset(mask int) (players []int) {
	for i := 1; i <= nn; i++ {
		if mask&(1<<(i-1)) != 0 {
			players = append(players, i)
		}
	}
	return players
}

// TestFaultTable walks every subset of faulty players, crashed and lying,
// from every rotation start: the plaintext is right iff t honest players
// are up, only faulty players that were asked are ever rejected, nobody is
// asked twice and there is never a third round. The last start then
// decrypts a second time on the same recombiner, with the first decryption's
// rejected players demoted.
func TestFaultTable(t *testing.T) {
	faults := []struct {
		name      string
		apply     func(d *deployment, i int)
		answering bool
	}{
		{"crashed", (*deployment).crash, false},
		{"lying", (*deployment).lieAlways, true},
	}
	for _, fault := range faults {
		for mask := 0; mask < 1<<nn; mask++ {
			faulty := subset(mask)
			t.Run(fmt.Sprintf("%s%v", fault.name, faulty), func(t *testing.T) {
				t.Parallel() // each deployment has a network of its own
				d := deploy(t)
				for _, i := range faulty {
					fault.apply(d, i)
				}
				for first := 1; first <= nn; first++ {
					r := d.recombiner(t)
					r.startAt(first)
					rounds, asked := checkDecryption(t, d, r, faulty, fault.answering)
					// The first choices are first, first+1, first+2: one round
					// iff none of them is faulty.
					clean := true
					for k := 0; k < tt; k++ {
						clean = clean && !slices.Contains(faulty, (first-1+k)%nn+1)
					}
					if clean != (rounds == 1) {
						t.Fatalf("start %d, faulty %v: %d rounds (asked %v)", first, faulty, rounds, asked)
					}
					if first == nn {
						// Again, from the next start, with what was just learned.
						rejectedBefore := r.met.rejected.Value()
						rounds, _ = checkDecryption(t, d, r, faulty, fault.answering)
						if rounds == 1 && r.met.rejected.Value() != rejectedBefore {
							t.Fatalf("faulty %v: a one-round decryption rejected a player", faulty)
						}
					}
					_ = r.Close()
				}
			})
		}
	}
}

// TestFaultTableHungPlayers repeats the table's check for players that
// accept a connection and never answer, on a few subsets (each hung player
// asked costs its round 2·timeout).
func TestFaultTableHungPlayers(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, leg := range []struct {
		hung  []int
		first int
	}{
		{[]int{2}, 1},       // a first choice hangs
		{[]int{5}, 1},       // a hung player nobody needs
		{[]int{3, 4}, 2},    // two first choices hang, the rest suffice exactly
		{[]int{1, 3, 5}, 4}, // below threshold
	} {
		t.Run(fmt.Sprintf("hung%v", leg.hung), func(t *testing.T) {
			t.Parallel() // the legs wait rather than compute
			d := deploy(t)
			r := d.recombinerWithTimeout(t, timeout)
			for _, i := range leg.hung {
				// Connected, then never answered (TestClusterToleratesHungPlayer).
				if err := r.pools[i-1].Ping(); err != nil {
					t.Fatal(err)
				}
				d.net.Hold(d.addrs[i-1], "recombiner")
			}
			r.startAt(leg.first)
			start := time.Now()
			rounds, _ := checkDecryption(t, d, r, leg.hung, false)
			// Each round is bounded by 2·timeout (one wait, one replay on a
			// fresh connection); the slack is for a loaded machine.
			if elapsed, bound := time.Since(start), time.Duration(rounds)*2*timeout+2*time.Second; elapsed > bound {
				t.Fatalf("%d rounds took %v, bound %v", rounds, elapsed, bound)
			}
		})
	}
}

// TestRotationFairness: with everyone honest a decryption asks exactly t
// players, and the rotation spreads them evenly — over 5·k decryptions each
// player serves 3·k.
func TestRotationFairness(t *testing.T) {
	d := deploy(t)
	r := d.recombiner(t)
	const k = 4
	for range nn * k {
		if rounds, asked := checkDecryption(t, d, r, nil, true); rounds != 1 || len(asked) != tt {
			t.Fatalf("honest decryption asked %v in %d rounds, want %d players in one", asked, rounds, tt)
		}
	}
	for i := 1; i <= nn; i++ {
		if d.served(i) != tt*k || r.fetched(i) != tt*k {
			t.Fatalf("player %d served %d of %d decryptions (recombiner counts %d), want %d", i, d.served(i), nn*k, r.fetched(i), tt*k)
		}
	}
	if asked, decrypts := r.met.asked.Value(), r.met.decrypts.Value(); asked != tt*decrypts || r.met.escalations.Value() != 0 {
		t.Fatalf("asked %d for %d decryptions with %d escalations, want t·decrypts and none", asked, decrypts, r.met.escalations.Value())
	}
}

// TestConcurrentDecryptionsPastLiar shares one recombiner among 8
// goroutines while player 2 lies: every decryption is right, nobody but the
// liar is ever rejected, and the rotation counter and demotion stamps are
// shared by all of them (CI runs this under -race).
func TestConcurrentDecryptionsPastLiar(t *testing.T) {
	d := deploy(t)
	d.lieAlways(2)
	r := d.recombiner(t)
	msgs, cs := encryptBatch(t, d, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				if k == 3 {
					// The liar's demotion expires mid-run, so it comes back
					// as a first choice while other decryptions are in flight.
					r.failedAt[1].Store(0)
				}
				j := (g + k) % len(cs)
				got, rejected, err := r.Decrypt(ident, cs[j])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(got, msgs[j]) {
					t.Errorf("goroutine %d: decrypted %x, want %x", g, got, msgs[j])
				}
				if len(rejected) > 1 || (len(rejected) == 1 && rejected[0] != 2) {
					t.Errorf("goroutine %d: rejected %v, want nobody or the liar", g, rejected)
				}
			}
		}()
	}
	wg.Wait()
	if r.met.escalations.Value() == 0 {
		t.Fatal("48 decryptions with a liar among five players never needed a second round")
	}
}
