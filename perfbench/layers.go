package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Shared pieces of the live workloads.

const (
	// setupRounds is how many times a live workload builds its cluster
	// per run; setup_s is the median.
	setupRounds = 3
	// warmup is the load time before the measured window.
	warmup = time.Second
	// drainTimeout bounds the wait for in-flight operations after the
	// window; what has not completed by then has failed.
	drainTimeout = 30 * time.Second
)

// completion is one client reply, stamped on the client's loop.
type completion struct {
	client int
	op     []byte
	reply  []byte
	at     time.Time
}

// completions buffers replies from the client loops to the generator.
// Each client has at most 64 requests outstanding, so a buffer this
// size never makes a client loop wait.
func newCompletions() chan completion { return make(chan completion, 256) }

// setupLoop builds a cluster setupRounds times, each time until its
// first committed reply, keeps the last one and records the median
// build time as setup_s. build returns the cluster and a function that
// commits one operation; stop tears a cluster down.
func setupLoop[C any](res *result, build func(round int) (C, func() error, error), stop func(C)) (C, error) {
	var (
		c     C
		times []float64
	)
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		cur, first, err := build(round)
		if err != nil {
			return c, err
		}
		if err := first(); err != nil {
			stop(cur)
			return c, fmt.Errorf("setup round %d: %w", round, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			stop(cur)
			// Return the torn-down cluster's memory to the OS, so the
			// window's memory peak is that of one cluster under load.
			debug.FreeOSMemory()
		}
		c = cur
	}
	res.e2e["setup_s"] = median(times)
	res.notef("setup_s rounds: %v", times)
	return c, nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillLayers derives the per-layer metrics of a traced live run from
// the recorder's aggregates, for ops committed over elapsed.
func fillLayers(res *result, rec *recorder, ops int, elapsed time.Duration) {
	n := float64(ops)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	mean := func(a agg, scale float64) float64 { return div(float64(a.total)/scale, float64(a.n)) }
	L := res.layer

	prim, fol := rec.get("xpaxos.step", "primary"), rec.get("xpaxos.step", "follower")
	L["xpaxos.step_us_per_op.primary"] = div(us(prim.self), n)
	L["xpaxos.step_us_per_op.follower"] = div(us(fol.self), n)
	L["xpaxos.loop_busy_frac.primary"] = div(float64(prim.total), float64(elapsed))
	for _, k := range deferKinds {
		L["smr.defer_us_per_op."+k] = div(us(rec.get("smr.defer."+k).total), n)
		L["smr.defer_wait_us."+k] = mean(rec.get("smr.defer_wait."+k), 1e3)
	}
	L["smr.apply_wait_us"] = mean(rec.get("smr.apply_wait"), 1e3)

	sign, ver, bv, mac := rec.get("crypto.sign"), rec.get("crypto.verify"), rec.get("crypto.batch_verify"), rec.get("crypto.mac")
	verified := float64(ver.n) + bv.sum
	L["crypto.signs_per_op"] = div(float64(sign.n), n)
	L["crypto.verifies_per_op"] = div(verified, n)
	L["crypto.macs_per_op"] = div(float64(mac.n), n)
	L["crypto.sign_us"] = mean(sign, 1e3)
	L["crypto.verify_us"] = div(us(ver.total+bv.total), verified)
	L["crypto.batch_sigs_per_call"] = div(bv.sum, float64(bv.n))
	L["crypto.busy_us_per_op"] = div(us(sign.total+ver.total+bv.total+mac.total), n)

	enc, dec := rec.get("wire.encode"), rec.get("wire.decode")
	L["wire.msgs_per_op"] = div(float64(enc.n), n)
	L["wire.bytes_per_op.primary"] = div(rec.get("wire.encode", "primary").sum, n)
	L["wire.bytes_per_op.follower"] = div(rec.get("wire.encode", "follower", "passive").sum, n)
	L["wire.bytes_per_op.client"] = div(rec.get("wire.encode", "client").sum, n)
	L["wire.encode_ns_per_msg"] = mean(enc, 1)
	L["wire.decode_ns_per_msg"] = mean(dec, 1)

	app, syn := rec.get("wal.append"), rec.get("wal.sync")
	L["wal.append_us"] = mean(app, 1e3)
	L["wal.sync_us"] = mean(syn, 1e3)
	L["wal.records_per_sync"] = div(float64(app.n), float64(syn.n))
	L["wal.syncs_per_op"] = div(float64(syn.n), n)
	L["wal.replay_ms"] = mean(rec.get("wal.replay"), 1e6)

	L["kv.execute_us.get"] = mean(rec.get("kv.execute.get"), 1e3)
	L["kv.execute_us.put"] = mean(rec.get("kv.execute.put"), 1e3)
	L["kv.snapshot_ms"] = mean(rec.get("kv.snapshot"), 1e6)
}

// latencyMetrics records commit latency and the generator's lag.
func latencyMetrics(res *result, lat latencies, lag latencies) {
	s := append([]float64(nil), lat...)
	res.e2e["commit_p50_ms"] = quantile(s, 0.50)
	res.e2e["commit_p90_ms"] = quantile(s, 0.90)
	res.layer["gen.commit_p99_ms"] = quantile(s, 0.99)
	res.layer["gen.samples"] = float64(len(lat))
	res.layer["gen.lag_p99_ms"] = quantile(append([]float64(nil), lag...), 0.99)
	res.notef("commit latency: %s", lat.describe())
	res.notef("generator lag: %s", lag.describe())
}
