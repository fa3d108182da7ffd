package cluster

import (
	"crypto/rand"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/curve/curvetest"
)

// TestBatchVerdictMatchesSingleVerdicts is the differential property behind
// checking one equation per ciphertext: for every way to lie in the
// corruptions table, applied at every position of every answering set the
// recombiner can face — all five players, a single one, exactly t, some
// absent; no liar, one, two — the batched check accepts iff every share
// would pass on its own, and the accept rule turns away exactly the liars.
// One more row is no lie at all: the same positions answering with
// V + T, T of cofactor order, which both verdicts must accept (V is only an
// evaluation point of the check). No network: the shares are computed and
// stamped as fetchRound would.
func TestBatchVerdictMatchesSingleVerdicts(t *testing.T) {
	d := deploy(t)
	p := d.params
	qid, err := bf.HashIdentityArg(p.Public.Pairing, ident)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Public.EncryptBasic(rand.Reader, ident, make([]byte, msgLen))
	if err != nil {
		t.Fatal(err)
	}
	honest := make([]*core.DecryptionShare, nn)
	for i, ks := range d.keys {
		if honest[i], err = p.ComputeShareWithProof(nil, ks, c.U); err != nil {
			t.Fatal(err)
		}
	}

	// Every answering set with each choice of at most two liars in it.
	type plan struct{ present, liars []int }
	var plans []plan
	for _, present := range [][]int{{1, 2, 3, 4, 5}, {3}, {1, 3, 5}, {2, 3, 4, 5}} {
		plans = append(plans, plan{present, nil})
		for a, i := range present {
			plans = append(plans, plan{present, []int{i}})
			for _, j := range present[a+1:] {
				plans = append(plans, plan{present, []int{i, j}})
			}
		}
	}

	type row struct {
		part  string
		apply func(own, player1 *core.DecryptionShare) *core.DecryptionShare
		lie   bool
	}
	rows := []row{{"V + T", corruptProof(func(pr *core.ShareProof) { pr.V = pr.V.Add(curvetest.RandomCofactorPoint(pr.V.Curve())) }), false}}
	for _, corrupt := range corruptions {
		rows = append(rows, row{corrupt.part, corrupt.apply, true})
	}

	for _, corrupt := range rows {
		for _, pl := range plans {
			t.Run(fmt.Sprintf("%s/present%v/liars%v", corrupt.part, pl.present, pl.liars), func(t *testing.T) {
				shares := make([]*core.DecryptionShare, len(pl.present))
				for k, i := range pl.present {
					shares[k] = honest[i-1]
					if slices.Contains(pl.liars, i) {
						// The table's second argument is "another player's
						// share"; the answer is stamped with the slot it came
						// from, whatever index it carried.
						lie := *corrupt.apply(honest[i-1], honest[i%nn])
						lie.Index = i
						shares[k] = &lie
					}
				}
				if !corrupt.lie {
					pl.liars = nil // the plan's positions answered in disguise, and honestly
				}
				all := true
				for _, ds := range shares {
					if (p.VerifyShareProofFor(qid, c.U, ds) == nil) == slices.Contains(pl.liars, ds.Index) {
						t.Fatalf("single verdict on player %d contradicts the plan", ds.Index)
					}
					all = all && !slices.Contains(pl.liars, ds.Index)
				}
				if err := p.VerifyShareProofs(qid, c.U, shares); (err == nil) != all {
					t.Fatalf("batch verdict %v, AND of single verdicts %v", err, all)
				}
				valid, rejected := p.AcceptableShares(qid, c.U, shares)
				if !slices.Equal(rejected, pl.liars) {
					t.Fatalf("rejected %v, want the liars %v", rejected, pl.liars)
				}
				for _, ds := range valid {
					if slices.Contains(pl.liars, ds.Index) {
						t.Fatalf("liar %d among the acceptable shares", ds.Index)
					}
				}
				if len(valid) != len(pl.present)-len(pl.liars) {
					t.Fatalf("%d acceptable shares of %d with %d liars", len(valid), len(pl.present), len(pl.liars))
				}
			})
		}
	}
}
