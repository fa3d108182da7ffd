package main

import (
	"bytes"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/sem"
	"repro/internal/wire"
)

// Per-layer metrics of the SEM workloads. Everything here observes the
// layers from outside: obs registries attached through the public
// Metrics/Instrument hooks, public stats getters, and timed calls of the
// layers' public functions on the workload's own inputs (layer replay).

// counters snapshots every cumulative layer counter the traced phase is
// bracketed with.
func (d *semDeployment) counters() counters {
	c := counters{}
	for _, ibe := range d.ibes {
		st := ibe.PairerCacheStats()
		c["lru.hits"] += float64(st.Hits)
		c["lru.misses"] += float64(st.Misses)
		c["lru.evictions"] += float64(st.Evictions)
	}
	eng := pairing.AmortizedEngineStats()
	c["pairing.fixed_builds"] = float64(eng.FixedPairBuilds)
	c["pairing.multi_calls"] = float64(eng.MultiPairCalls)
	c["pairing.multi_pairs"] = float64(eng.MultiPairPairs)
	for _, name := range []string{"sempool_frames_total", "sempool_frame_items_total", "sempool_dials_total", "shardclient_failovers_total"} {
		c[name] = counterValue(d.clientReg, name)
	}
	for _, reg := range d.serverRegs {
		bs := reg.ValueHistogram("sem_batch_size", "").Snapshot()
		c["sem_batch.count"] += float64(bs.Count)
		c["sem_batch.sum"] += float64(bs.Sum)
	}
	if d.spec.replicated {
		reg := d.serverRegs[d.leaderIdx]
		c["journal_appends_total"] = counterValue(reg, "journal_appends_total")
		c["journal_fsyncs_total"] = counterValue(reg, "journal_fsyncs_total")
	}
	return c
}

// queueDepth samples the deepest worker-pool queue across the fleet.
func (d *semDeployment) queueDepth() float64 {
	deepest := 0.0
	for _, reg := range d.serverRegs {
		deepest = max(deepest, gaugeFuncValue(reg, "sem_queue_depth"))
	}
	return deepest
}

// replayOps bounds how many ops of the traced phase are replayed layer by
// layer; pairingOps how many get the (slow) bare pairing timings.
const (
	replayOps  = 512
	pairingOps = 32
)

// layers fills ls from the registries, the counter deltas over the traced
// phase, and a layer replay of the phase's first token ops.
func (d *semDeployment) layers(ls layerSet, load *loadResult, delta counters, tr *tracer) error {
	ops := float64(load.ok())

	// Registries and public counters.
	ls["lru.pairer_hit_ratio"] = ratio(delta["lru.hits"], delta["lru.hits"]+delta["lru.misses"])
	ls["lru.evictions_per_op"] = ratio(delta["lru.evictions"], ops)
	ls["pairing.fixed_programs_per_op"] = ratio(delta["pairing.fixed_builds"], ops)
	ls["pairing.multipair_pairs_per_call"] = ratio(delta["pairing.multi_pairs"], delta["pairing.multi_calls"])
	ls["sem.pool_items_per_frame"] = ratio(delta["sempool_frame_items_total"], delta["sempool_frames_total"])
	ls["sem.pool_redials"] = delta["sempool_dials_total"]
	ls["sem.batch_size_mean"] = ratio(delta["sem_batch.sum"], delta["sem_batch.count"])
	ls["shard.failovers"] = delta["shardclient_failovers_total"]
	var service, weight float64
	for _, reg := range d.serverRegs {
		s := reg.Histogram("sem_service_seconds", "", obs.Label{Key: "op", Value: string(sem.OpIBEToken)}).Snapshot()
		service += float64(s.Quantile(0.5)) / 1e3 * float64(s.Count)
		weight += float64(s.Count)
	}
	ls["sem.server_service_p50_us"] = ratio(service, weight)
	if d.spec.replicated {
		reg := d.serverRegs[d.leaderIdx]
		ls["core.journal_append_us"] = float64(reg.Histogram("journal_append_seconds", "").Snapshot().Quantile(0.5)) / 1e3
		ls["core.journal_appends_per_fsync"] = ratio(delta["journal_appends_total"], delta["journal_fsyncs_total"])
		ls["repl.revoke_ack_us"] = quantile(tr.durationsUs("repl.revoke_ack"), 0.5)
		ls["repl.revoke_visible_us"] = quantile(tr.durationsUs("repl.revoke_visible"), 0.5)
		ls["repl.stale_serve_share"] = ratio(float64(d.stale.Load()), float64(d.revokes.Load()))
	}
	ls["setup.enroll_us_per_id"] = float64(d.enrollDur) / 1e3 / float64(len(d.ids))
	ls["setup.register_us_per_id"] = float64(d.registerDur) / 1e3 / float64(len(d.ids))

	// Transport floor: a ping carries no crypto, only a frame, the
	// syscalls and the worker hand-off. Nothing else is running now.
	pinger := d.leaderPool
	if pinger == nil {
		pinger = sem.NewPool(d.addrs[0], d.pp, sem.PoolConfig{Size: 1, HealthInterval: -1})
		defer func() { _ = pinger.Close() }()
	}
	var pingErr error
	pings := timeEach(500, func(int) {
		if err := pinger.Ping(); err != nil {
			pingErr = err
		}
	})
	if pingErr != nil {
		return pingErr
	}
	ls["sem.ping_rtt_us"] = quantile(pings, 0.5)

	return d.replay(ls, load, tr)
}

// replay runs the layers an op's result waits on again, in-process and one
// at a time, for the first replayOps token ops of the phase, and attributes
// the token class's p50 to them.
func (d *semDeployment) replay(ls layerSet, load *loadResult, tr *tracer) error {
	// A shadow SEM with the same key halves and the default cache capacity,
	// warmed like the fleet and then fed the same op order, hits and misses
	// its pairer cache the way the fleet's SEMs did.
	reg := core.NewRegistry()
	shadow := core.NewIBESEM(d.pub, reg)
	for _, h := range d.ibeHalves {
		shadow.Register(h)
	}
	for i := range min(d.spec.hot, warmIDs) {
		if _, err := shadow.Token(d.ids[i], d.us[i]); err != nil {
			return err
		}
	}

	var samples []sample
	for _, s := range load.samples {
		if s.class == classToken && s.k < int64(8*replayOps) {
			samples = append(samples, s)
		}
	}
	sortSamples(samples)
	samples = samples[:min(len(samples), replayOps)]

	var (
		err       error
		sums      []float64
		hit, miss []float64
		scratch   [4]string
		crv       = d.pp.Curve()
		keep      = func(e error) {
			if err == nil {
				err = e
			}
		}
	)
	for _, s := range samples {
		i := int(d.seq[s.k%int64(len(d.seq))].id)
		id, u := d.ids[i], d.us[i]
		var total time.Duration
		total += tr.replay("shard.lookup", s.k, func() { d.sc.Ring().Replicas(scratch[:0], id, d.spec.shards) })
		// The SEM works on the point it decoded (whose subgroup check the
		// decoder already paid and the point remembers), and so does the
		// replay.
		uBytes := u.Marshal()
		total += tr.replay("wire.unmarshal_g1", s.k, func() {
			var e error
			u, e = wire.UnmarshalG1(crv, uBytes)
			keep(e)
		})
		if err != nil {
			return err
		}
		before := shadow.PairerCacheStats().Hits
		var tok *pairing.GT
		dur := tr.replay("core.token", s.k, func() {
			var e error
			tok, e = shadow.Token(id, u)
			keep(e)
		})
		total += dur
		if shadow.PairerCacheStats().Hits > before {
			hit = append(hit, float64(dur)/1e3)
		} else {
			miss = append(miss, float64(dur)/1e3)
		}
		if err != nil {
			return err
		}
		tokBytes := tok.Bytes() //cryptolint:public (the token is the SEM's wire output)
		total += tr.replay("wire.unmarshal_gt", s.k, func() {
			_, e := wire.UnmarshalGT(d.pp, tokBytes)
			keep(e)
		})
		total += tr.replay("oracle.check", s.k, func() {
			if !bytes.Equal(tok.Bytes(), d.tokens[i]) { //cryptolint:public (oracle check on the SEM's wire output)
				keep(errTokenMismatch)
			}
		})
		sums = append(sums, float64(total)/1e3)
	}
	if err != nil {
		return err
	}

	// A hot workload never misses (and a tiny one may never hit): force a
	// few of each so both costs are always reported.
	for i := 0; i < min(pairingOps, len(d.ids)); i++ {
		shadow.Register(d.ibeHalves[i]) // drops the cached program
		d.us[i].InSubgroup()            // remembered by the point, as after decoding
		for _, into := range []*[]float64{&miss, &hit} {
			t0 := time.Now()
			if _, err := shadow.Token(d.ids[i], d.us[i]); err != nil {
				return err
			}
			*into = append(*into, float64(time.Since(t0))/1e3)
		}
	}
	ls["core.token_hit_us"] = median(hit)
	ls["core.token_miss_us"] = median(miss)
	ls["shard.lookup_ns"] = quantile(tr.durationsUs("shard.lookup"), 0.5) * 1e3
	ls["wire.unmarshal_g1_us"] = quantile(tr.durationsUs("wire.unmarshal_g1"), 0.5)
	ls["wire.unmarshal_gt_us"] = quantile(tr.durationsUs("wire.unmarshal_gt"), 0.5)

	// The attribution: root p50 = transport floor + replayed steps + rest.
	rootP50 := quantile(load.latenciesMs(classToken, false), 0.5) * 1e3
	ls["op.p50_us"] = rootP50
	ls["op.replay_p50_us"] = median(sums)
	ls["sem.unattributed_us"] = rootP50 - ls["sem.ping_rtt_us"] - ls["op.replay_p50_us"]
	ls["sem.unattributed_share"] = ratio(ls["sem.unattributed_us"], rootP50)

	// Bare pairing costs on the workload's own points.
	n := min(pairingOps, len(d.ids))
	programs := make([]*pairing.FixedPair, n)
	ls["pairing.fixed_precompute_us"] = quantile(timeEach(n, func(i int) {
		var e error
		programs[i], e = d.pp.NewFixedPair(d.ibeHalves[i].D)
		keep(e)
	}), 0.5)
	if err != nil {
		return err
	}
	ls["pairing.fixed_pair_us"] = quantile(timeEach(n, func(i int) {
		_, e := programs[i].Pair(d.us[i])
		keep(e)
	}), 0.5)
	ls["pairing.pair_us"] = quantile(timeEach(n, func(i int) {
		_, e := d.pp.Pair(d.us[i], d.ibeHalves[i].D)
		keep(e)
	}), 0.5)

	reg.Revoke("revoked@bench", "so the check walks a non-empty list")
	ls["core.revocation_check_ns"], _ = loopCost(100000, func(i int) { keep(reg.Check(d.ids[i%len(d.ids)])) })

	if len(d.gdhHalves) > 0 {
		gdh := core.NewGDHSEM(d.pp, reg)
		for _, h := range d.gdhHalves {
			gdh.Register(h)
		}
		ls["core.gdh_halfsign_us"] = quantile(timeEach(min(replayOps, len(d.ids)), func(i int) {
			_, e := gdh.HalfSign(d.ids[i], d.hs[i])
			keep(e)
		}), 0.5)
	}

	// The frame codec, round trip, on one token request and its response.
	var (
		enc wire.FrameEncoder
		dec wire.FrameDecoder
		rd  bytes.Reader
	)
	const opToken = 1 // the ibe_token op byte of protocol v2 (internal/sem/protocolv2.go)
	req := []wire.ReqItem{{ID: []byte(d.ids[0]), Payload: d.us[0].Marshal()}}
	resp := []wire.RespItem{{Data: d.tokens[0]}}
	var reqAllocs, respAllocs float64
	ls["wire.req_codec_ns"], reqAllocs = loopCost(20000, func(int) {
		frame, e := enc.EncodeRequest(opToken, req, 0)
		keep(e)
		rd.Reset(frame)
		_, _, _, e = dec.ReadRequest(&rd, 0, 0)
		keep(e)
	})
	ls["wire.resp_codec_ns"], respAllocs = loopCost(20000, func(int) {
		frame, e := enc.EncodeResponse(opToken, resp, 0)
		keep(e)
		rd.Reset(frame)
		_, _, _, e = dec.ReadResponse(&rd, 0, 0)
		keep(e)
	})
	ls["wire.codec_allocs"] = reqAllocs + respAllocs
	return err
}
