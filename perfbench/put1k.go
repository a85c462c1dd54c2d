package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// put1k-sat: two closed-loop clients at window 16 each put 1 KB values
// over a seeded key set, as fast as the cluster commits them.
const (
	put1kClients = 2
	put1kWindow  = 16
	put1kKeys    = 1024
	put1kValue   = 1024
)

func runPut1k(o runOpts) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(o.seed))
	filler := make([]byte, put1kValue)
	rng.Read(filler)
	var seq uint64
	// nextOp returns a put of a fresh value (its first 8 bytes are a
	// sequence number, so every operation's bytes are unique).
	nextOp := func() []byte {
		seq++
		v := append([]byte(nil), filler...)
		binary.BigEndian.PutUint64(v, seq)
		return kv.PutOp(fmt.Sprintf("k%04d", rng.Intn(put1kKeys)), v)
	}

	comp := newCompletions()
	c, err := setupLoop(res, func(round int) (*tcpCluster, func() error, error) {
		c, err := newTCPCluster(tcpConfig{
			seed: o.seed, clients: put1kClients, window: put1kWindow, rec: o.rec,
			onCommit: func(i int, op, reply []byte, at time.Time) { comp <- completion{i, op, reply, at} },
		})
		if err != nil {
			return nil, nil, err
		}
		return c, func() error { return firstCommit(c, comp, nextOp()) }, nil
	}, (*tcpCluster).Stop)
	if err != nil {
		return nil, err
	}
	res.attempted += setupRounds

	type pending struct{ due time.Time }
	inflight := make([]map[string]pending, put1kClients)
	for i := range inflight {
		inflight[i] = map[string]pending{}
	}
	submit := func(i int, due time.Time) {
		op := nextOp()
		inflight[i][string(op)] = pending{due}
		c.submit(i, op)
		res.attempted++
	}

	var (
		lat, lag latencies
		recs     []opRec
	)
	shed0 := c.intakeShed()
	start := time.Now()
	winStart, winEnd := start.Add(warmup), start.Add(warmup+o.seconds)
	for i := 0; i < put1kClients; i++ {
		for j := 0; j < put1kWindow; j++ {
			submit(i, start)
		}
	}
	var (
		win            *window
		b0, o0, b1, o1 int64
		shed1          uint64
		sampler        peakSampler
	)
	ops, open := 0, put1kClients*put1kWindow
	started, ended := false, false
	timeout := time.NewTimer(warmup + o.seconds + drainTimeout)
	defer timeout.Stop()
	for open > 0 {
		var cm completion
		select {
		case cm = <-comp:
		case <-timeout.C:
			res.failed += open
			res.checkf("%d operations never completed", open)
			open = 0
			continue
		}
		if !started && !cm.at.Before(winStart) {
			started = true
			win = startWindow()
			o.rec.enable(true)
			b0, o0 = c.batches.Load(), c.batchOps.Load()
			sampler.begin(c, o.rec)
		}
		if started && !ended && !cm.at.Before(winEnd) {
			ended = true
			win.stop()
			o.rec.enable(false)
			b1, o1, shed1 = c.batches.Load(), c.batchOps.Load(), c.intakeShed()
			sampler.finish(res)
		}
		sampler.sample()
		p, ok := inflight[cm.client][string(cm.op)]
		if !ok {
			res.failed++
			res.checkf("client %d: reply for an operation it did not have in flight", cm.client)
			continue
		}
		delete(inflight[cm.client], string(cm.op))
		open--
		if len(cm.reply) != 1 || cm.reply[0] != kv.StatusOK {
			res.failed++
			res.checkf("client %d: put replied %x", cm.client, cm.reply)
		}
		if started && !ended {
			ops++
			lat.add(cm.at.Sub(p.due))
			recs = append(recs, opRec{cm.at, cm.at.Sub(p.due)})
		}
		if !ended {
			submit(cm.client, cm.at)
			lag.add(time.Since(cm.at))
			open++
		}
	}
	if !ended {
		return nil, fmt.Errorf("the measured window saw no completion at its end")
	}
	win.report(res, ops)
	latencyMetrics(res, lat, lag)
	res.notef("whole window: %.1f ops/s, %d committed ops", float64(ops)/win.elapsed.Seconds(), ops)
	win.sliceMedians(res, recs)

	c.Stop()
	checkActiveStores(res, c)
	if vc := c.viewChanges(); vc != 0 {
		res.checkf("bypass prediction: %d view changes on a fault-free run", vc)
	}
	if o.rec != nil {
		fillLayers(res, o.rec, ops, win.elapsed)
		res.layer["xpaxos.view_changes"] = float64(c.viewChanges())
		res.layer["xpaxos.intake_shed"] = float64(shed1 - shed0)
		res.layer["xpaxos.ops_per_batch"] = div(float64(o1-o0), float64(b1-b0))
		clientLayers(res, c)
		if res.layer["crypto.batch_sigs_per_call"] <= 1 {
			res.checkf("traced run left the batch-verification path: crypto.batch_sigs_per_call = %.3g", res.layer["crypto.batch_sigs_per_call"])
		}
		for _, d := range perLayer {
			if len(d.name) > 4 && d.name[:4] == "wal." && res.layer[d.name] != 0 {
				res.checkf("bypass prediction: %s = %g on a run without a WAL", d.name, res.layer[d.name])
			}
		}
	}
	return res, nil
}

// firstCommit commits op through client 0 and waits for its reply.
func firstCommit(c *tcpCluster, comp chan completion, op []byte) error {
	c.submit(0, op)
	select {
	case cm := <-comp:
		if len(cm.reply) == 0 || cm.reply[0] != kv.StatusOK {
			return fmt.Errorf("first operation replied %x", cm.reply)
		}
		return nil
	case <-time.After(drainTimeout):
		return fmt.Errorf("first operation did not commit within %s", drainTimeout)
	}
}

// checkActiveStores compares the kv snapshots of the active replicas
// of the final view on a stopped cluster.
func checkActiveStores(res *result, c *tcpCluster) {
	g := xpaxos.SyncGroup(clusterN, clusterT, smr.View(c.maxView.Load()))
	a, b := c.replicas[g[0]].store.Snapshot(), c.replicas[g[1]].store.Snapshot()
	if !bytes.Equal(a, b) {
		res.checkf("active replicas %d and %d diverge at quiescence (%d vs %d snapshot bytes)", g[0], g[1], len(a), len(b))
	}
}

// peakSampler tracks the transport's send drops and deepest send queue
// over a traced window; it does nothing untraced.
type peakSampler struct {
	c          *tcpCluster
	drops0     uint64
	peak       int
	lastSample time.Time
}

func (p *peakSampler) begin(c *tcpCluster, rec *recorder) {
	if rec == nil {
		return
	}
	p.c = c
	p.drops0, p.peak = c.sendStats()
	p.lastSample = time.Now()
}

// sample reads the queues at most every 10 ms.
func (p *peakSampler) sample() {
	if p.c == nil || time.Since(p.lastSample) < 10*time.Millisecond {
		return
	}
	p.lastSample = time.Now()
	_, q := p.c.sendStats()
	p.peak = max(p.peak, q)
}

func (p *peakSampler) finish(res *result) {
	if p.c == nil {
		return
	}
	drops, q := p.c.sendStats()
	// Counters of crashed nodes vanish from the sum; clamp at zero.
	res.layer["transport.send_drops"] = max(0, float64(drops)-float64(p.drops0))
	res.layer["transport.queue_peak"] = float64(max(p.peak, q))
	p.c = nil
}

// clientLayers reads the stopped clients' retransmission counters.
func clientLayers(res *result, c *tcpCluster) {
	var rt, hr uint64
	for _, s := range c.clients {
		rt += s.cl.Retransmits
		hr += s.cl.HealthRotations
	}
	res.layer["client.retransmits"] = float64(rt)
	res.layer["client.health_rotations"] = float64(hr)
}
