package main

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
)

// Per-layer metrics of the threshold workload: the cluster registries plus
// a replay of the share, verify and combine steps on the workload's own
// ciphertexts.

func (d *thresholdDeployment) counters() counters {
	c := counters{}
	eng := pairing.AmortizedEngineStats()
	c["pairing.fixed_builds"] = float64(eng.FixedPairBuilds)
	c["pairing.multi_calls"] = float64(eng.MultiPairCalls)
	c["pairing.multi_pairs"] = float64(eng.MultiPairPairs)
	for _, name := range []string{"cluster_pool_dials_total", "cluster_pool_reuses_total", "cluster_rejected_shares_total"} {
		c[name] = counterValue(d.reg, name)
	}
	return c
}

func (d *thresholdDeployment) queueDepth() float64 { return 0 }

// thresholdReplayOps bounds the replayed decryptions (each costs n share
// computations and n proof verifications at paper size).
const thresholdReplayOps = 16

func (d *thresholdDeployment) layers(ls layerSet, load *loadResult, delta counters, tr *tracer) error {
	ops := float64(load.ok())
	ls["pairing.fixed_programs_per_op"] = ratio(delta["pairing.fixed_builds"], ops)
	ls["pairing.multipair_pairs_per_call"] = ratio(delta["pairing.multi_pairs"], delta["pairing.multi_calls"])
	ls["cluster.pool_reuse_ratio"] = ratio(delta["cluster_pool_reuses_total"], delta["cluster_pool_reuses_total"]+delta["cluster_pool_dials_total"])
	ls["cluster.rejected_shares"] = delta["cluster_rejected_shares_total"]
	ls["cluster.quorum_wait_p50_ms"] = float64(d.reg.Histogram("cluster_quorum_wait_seconds", "").Snapshot().Quantile(0.5)) / 1e6
	// A decryption waits for all n fetches, so the slowest player's median
	// is the one its latency follows.
	for j := 1; j <= d.spec.n; j++ {
		h := d.reg.Histogram("cluster_fetch_seconds", "", obs.Label{Key: "player", Value: strconv.Itoa(j)})
		ls["cluster.fetch_p50_ms"] = max(ls["cluster.fetch_p50_ms"], float64(h.Snapshot().Quantile(0.5))/1e6)
	}
	ls["setup.enroll_us_per_id"] = float64(d.enrollDur) / 1e3 / float64(len(d.ids))
	ls["setup.register_us_per_id"] = float64(d.registerDur) / 1e3 / float64(len(d.ids))
	ls["op.p50_us"] = quantile(load.latenciesMs(0, false), 0.5) * 1e3

	var err error
	var sums []float64
	samples := append([]sample(nil), load.samples...)
	sortSamples(samples)
	for _, s := range samples[:min(len(samples), thresholdReplayOps)] {
		i := int(d.seq[s.k%int64(len(d.seq))])
		id, u := d.ids[i], d.cts[i].U
		shares := make([]*core.DecryptionShare, d.spec.n)
		// One player's share and its verification sit on the blocking path
		// (players work in parallel); the replay still times all n.
		var slowest float64
		for j, ks := range d.shares[i] {
			chain := tr.replay("core.share_with_proof", s.k, func() {
				var e error
				if shares[j], e = d.params.ComputeShareWithProof(nil, ks, u); e != nil && err == nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			chain += tr.replay("core.verify_share", s.k, func() {
				if e := d.params.VerifyShareProof(id, u, shares[j]); e != nil && err == nil {
					err = e
				}
			})
			slowest = max(slowest, float64(chain)/1e3)
		}
		combine := tr.replay("core.combine", s.k, func() {
			if _, e := d.params.CombineShares(shares[:d.spec.t]); e != nil && err == nil {
				err = e
			}
		})
		sums = append(sums, slowest+float64(combine)/1e3)
	}
	ls["core.share_with_proof_ms"] = quantile(tr.durationsUs("core.share_with_proof"), 0.5) / 1e3
	ls["core.verify_share_ms"] = quantile(tr.durationsUs("core.verify_share"), 0.5) / 1e3
	ls["core.combine_us"] = quantile(tr.durationsUs("core.combine"), 0.5)
	ls["op.replay_p50_us"] = median(sums)
	// What the replay leaves unexplained here is mostly CPU queueing, not
	// waiting: callers x n share+verify chains compete for the procs.
	return err
}
