package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// rw-failover: one open-loop generator offers a fixed rate of 50/50
// gets and puts (64 B values) over two client identities, while the
// benchmark crashes the current primary three times and restarts it
// from its WAL each time. Replicas run keepalive probing.
const (
	foRate    = 500 // offered operations per second
	foClients = 2
	foWindow  = 64 // per client; further due operations queue in the generator
	foKeys    = 128
	foValue   = 64
	foProbe   = 100 * time.Millisecond // keepalive interval; timeout 5x
	// foLimit is the latency limit, from due time, an operation must
	// meet to count towards throughput.
	foLimit = time.Second
)

// A crash plan places crashes of the current primary at fractions of
// the measured window (plus a seeded jitter of up to 5% of it); each
// crashed replica restarts from its WAL a fixed fraction later, or
// never when restart is 0.
type crashPlan struct {
	at      []float64
	restart float64
}

var (
	// threeCrashes is rw-failover: three crashes at 10%, 40% and 70%,
	// each restarted 25% later.
	threeCrashes = crashPlan{at: []float64{0.1, 0.4, 0.7}, restart: 0.25}
	// oneCrash is rw-crash: one crash at 20%, no restart.
	oneCrash = crashPlan{at: []float64{0.2}}
)

type foOp struct {
	// due is when the operation is due, enq when the generator created
	// it, submit when it entered a client, at when its reply arrived.
	due, enq, submit, at time.Time
	client, key          int
	get                  bool
	version              uint64 // put: the version written
	// since is, for a get, the latest submit time of a put of its key
	// acknowledged before the get was submitted: a value acknowledged
	// before then was overwritten before the get began.
	since time.Time
	op    []byte
}

// foValueOf is the 64 B value version v of key k holds: the key and
// version followed by bytes derived from both.
func foValueOf(seed int64, k int, v uint64) []byte {
	b := make([]byte, foValue)
	binary.BigEndian.PutUint64(b[0:], uint64(k))
	binary.BigEndian.PutUint64(b[8:], v)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(k)<<32 ^ v
	for i := 16; i < foValue; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

type foCrash struct {
	victim      smr.NodeID
	at, restart time.Time
	restarted   bool
	caughtUp    time.Time
	detected    time.Time // first PeerDown naming the victim at a survivor
	target      uint64    // cluster's executed sn at restart
	discarded   int
}

func runFailover(o runOpts) (*result, error) { return runCrashes(o, threeCrashes) }
func runCrash(o runOpts) (*result, error)    { return runCrashes(o, oneCrash) }

func runCrashes(o runOpts, plan crashPlan) (*result, error) {
	res := newResult()
	comp := newCompletions()
	c, err := setupLoop(res, func(round int) (*tcpCluster, func() error, error) {
		c, err := newTCPCluster(tcpConfig{
			seed: o.seed, clients: foClients, window: foWindow, rec: o.rec, probe: foProbe,
			walDir:   filepath.Join(o.scratch, fmt.Sprintf("wal-%d", round)),
			onCommit: func(i int, op, reply []byte, at time.Time) { comp <- completion{i, op, reply, at} },
		})
		if err != nil {
			return nil, nil, err
		}
		return c, func() error { return firstCommit(c, comp, kv.PutOp("setup", nil)) }, nil
	}, (*tcpCluster).Stop)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	res.attempted += setupRounds

	rng := rand.New(rand.NewSource(o.seed))
	start := time.Now()
	winStart, winEnd := start.Add(warmup), start.Add(warmup+o.seconds)
	var crashes []*foCrash
	for _, frac := range plan.at {
		at := winStart.Add(time.Duration((frac + 0.05*rng.Float64()) * float64(o.seconds)))
		crashes = append(crashes, &foCrash{at: at, restart: at.Add(time.Duration(plan.restart * float64(o.seconds)))})
	}

	// The generator runs on its own goroutine; this one injects the
	// crashes and samples the cluster.
	genDone := make(chan *foGen, 1)
	go func() {
		g := &foGen{seed: o.seed, rng: rng, c: c, comp: comp, start: start, winStart: winStart, winEnd: winEnd}
		g.run()
		genDone <- g
	}()

	time.Sleep(time.Until(winStart))
	win := startWindow()
	o.rec.enable(true)
	shed0 := c.intakeShed()
	var sampler peakSampler
	sampler.begin(c, o.rec)
	var g *foGen
	next, restarting := 0, -1
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for g == nil {
		select {
		case g = <-genDone:
			continue
		case <-tick.C:
		}
		now := time.Now()
		if restarting >= 0 && o.rec != nil {
			cr := crashes[restarting]
			if cr.caughtUp.IsZero() && c.executed[cr.victim].Load() >= cr.target {
				cr.caughtUp = now
			}
		}
		if next < len(crashes) && restarting == next-1 && !now.Before(crashes[next].at) {
			cr := crashes[next]
			cr.victim = c.primary()
			if c.replicas[cr.victim].down {
				continue // no live primary yet: crash the next one once it is up
			}
			cr.at = time.Now()
			n, err := c.crash(int(cr.victim))
			if err != nil {
				return nil, fmt.Errorf("crash replica %d: %w", cr.victim, err)
			}
			cr.discarded = n
			next++
		}
		if plan.restart > 0 && restarting < next-1 && !now.Before(crashes[next-1].restart) {
			cr := crashes[next-1]
			for id := range c.replicas {
				if !c.replicas[id].down {
					cr.target = max(cr.target, c.executed[id].Load())
				}
			}
			cr.restart, cr.restarted = time.Now(), true
			if err := c.restart(int(cr.victim)); err != nil {
				return nil, fmt.Errorf("restart replica %d: %w", cr.victim, err)
			}
			restarting = next - 1
		}
		sampler.sample()
	}
	win.stop()
	o.rec.enable(false)
	sampler.finish(res)
	shed1 := c.intakeShed()
	for _, cr := range crashes[:next] {
		restart := "no restart"
		if cr.restarted {
			restart = fmt.Sprintf("restart at +%.3fs", cr.restart.Sub(winStart).Seconds())
		}
		res.notef("crash of replica %d at +%.3fs, %s, %d unsynced WAL records discarded",
			cr.victim, cr.at.Sub(winStart).Seconds(), restart, cr.discarded)
	}

	res.attempted += len(g.ops)
	res.failed += g.failed
	res.checks = append(res.checks, g.checks...)
	var lat, lag latencies
	windowOps, good := 0, 0
	for _, op := range g.ops {
		lag.add(op.enq.Sub(op.due))
		if op.at.IsZero() || op.due.Before(winStart) {
			continue
		}
		windowOps++
		d := op.at.Sub(op.due)
		lat.add(d)
		if d <= foLimit {
			good++
		}
	}
	win.report(res, windowOps)
	res.e2e["throughput_ops_s"] = float64(good) / o.seconds.Seconds()
	res.notef("throughput %.1f ops/s within %s of due time (%d of %d operations due in the window)",
		res.e2e["throughput_ops_s"], foLimit, good, windowOps)
	latencyMetrics(res, lat, lag)
	if next < len(crashes) {
		res.checkf("only %d of %d crashes happened before the load drained", next, len(crashes))
	}

	// Failover: crash → first reply to an operation submitted after it.
	var gaps, detect, vc, catchup []float64
	for _, cr := range crashes[:next] {
		first := time.Time{}
		for _, op := range g.ops {
			if op.submit.After(cr.at) && !op.at.IsZero() && (first.IsZero() || op.at.Before(first)) {
				first = op.at
			}
		}
		if !first.IsZero() {
			gaps = append(gaps, first.Sub(cr.at).Seconds())
		}
		if at, ok := c.firstViewWithout(cr.victim, cr.at); ok {
			vc = append(vc, at.Sub(cr.at).Seconds())
		}
		if !cr.caughtUp.IsZero() {
			catchup = append(catchup, cr.caughtUp.Sub(cr.restart).Seconds())
		}
	}
	res.layer["gen.failover_gap_s"] = median(gaps)
	res.notef("failover gaps (crash to next committed reply): %.3v s", gaps)
	discarded := 0
	for _, cr := range crashes[:next] {
		discarded += cr.discarded
	}
	if o.rec != nil {
	drain:
		for {
			select {
			case ev := <-c.peerDown:
				for _, cr := range crashes[:next] {
					if ev.peer == cr.victim && ev.at.After(cr.at) && (plan.restart == 0 || ev.at.Before(cr.restart)) &&
						(cr.detected.IsZero() || ev.at.Before(cr.detected)) {
						cr.detected = ev.at
					}
				}
			default:
				break drain
			}
		}
		for _, cr := range crashes[:next] {
			if !cr.detected.IsZero() {
				detect = append(detect, float64(cr.detected.Sub(cr.at))/1e6)
			}
		}
		fillLayers(res, o.rec, windowOps, win.elapsed)
		res.layer["xpaxos.view_changes"] = float64(c.viewChanges())
		res.layer["xpaxos.viewchange_s"] = median(vc)
		res.layer["xpaxos.catchup_s"] = median(catchup)
		// Counters of crashed replicas vanish from the sum; clamp at zero.
		res.layer["xpaxos.intake_shed"] = max(0, float64(shed1)-float64(shed0))
		res.layer["transport.detect_ms"] = median(detect)
		res.layer["wal.discarded_records"] = float64(discarded)
		res.notef("view change (crash to a view without the victim): %.3v s; catch-up: %.3v s; detection: %.4v ms", vc, catchup, detect)
	}
	c.Stop()
	clientLayers(res, c)
	for _, s := range c.clients {
		res.notef("client %d at the end: view guess %d, %d outstanding, %d retransmits, %d health rotations",
			s.id, s.cl.View(), s.cl.Outstanding(), s.cl.Retransmits, s.cl.HealthRotations)
	}
	for _, s := range c.replicas {
		res.notef("replica %d at the end: view %d, executed sn %d", s.id, s.rep.View(), s.rep.Executed())
	}
	return res, nil
}

// foGen is the open-loop generator. Operations are due at a fixed rate;
// all operations of one key go to the same client, waiting in the
// generator while that client's window is full.
type foGen struct {
	seed                    int64
	rng                     *rand.Rand
	c                       *tcpCluster
	comp                    chan completion
	start, winStart, winEnd time.Time
	ops                     []*foOp
	failed                  int
	checks                  []string
	queue                   [foClients][]*foOp
	inflight                [foClients]map[string][]*foOp
	open                    [foClients]int
	issued                  [foKeys]uint64
	ackedAt                 [foKeys]map[uint64]time.Time // put version -> reply time
	ackedSubmit             [foKeys]time.Time            // latest submit time of an acknowledged put
	bags                    map[string]*getBag
}

// getBag holds completed gets of one key on one client while an
// identical get is still in flight: replies to identical operations
// cannot be told apart, so their bounds are checked together.
type getBag struct {
	since []time.Time // per get
	valid []time.Time // per reply: the value was current until at least then
}

func (g *foGen) fail(format string, args ...any) {
	g.failed++
	if len(g.checks) < 20 {
		g.checks = append(g.checks, fmt.Sprintf(format, args...))
	}
}

func (g *foGen) run() {
	period := time.Second / foRate
	total := int(g.winEnd.Sub(g.start) / period)
	g.bags = map[string]*getBag{}
	for i := range g.inflight {
		g.inflight[i] = map[string][]*foOp{}
	}
	for k := range g.ackedAt {
		g.ackedAt[k] = map[uint64]time.Time{}
	}
	deadline := time.NewTimer(time.Until(g.winEnd.Add(drainTimeout)))
	defer deadline.Stop()
	tick := time.NewTimer(0)
	defer tick.Stop()
	done := 0
	for done < total {
		now := time.Now()
		for len(g.ops) < total {
			due := g.start.Add(time.Duration(len(g.ops)) * period)
			if due.After(now) {
				tick.Reset(due.Sub(now))
				break
			}
			g.enqueue(due)
		}
		for i := range g.queue {
			g.dispatch(i)
		}
		select {
		case cm := <-g.comp:
			g.complete(cm)
			done++
		case <-tick.C:
		case <-deadline.C:
			left := total - done
			g.fail("%d operations never completed", left)
			g.failed += left - 1
			return
		}
	}
}

func (g *foGen) enqueue(due time.Time) {
	op := &foOp{due: due, enq: time.Now(), key: g.rng.Intn(foKeys), get: g.rng.Intn(2) == 0}
	op.client = op.key % foClients
	key := fmt.Sprintf("k%03d", op.key)
	if op.get {
		op.op = kv.GetOp(key)
	} else {
		g.issued[op.key]++
		op.version = g.issued[op.key]
		op.op = kv.PutOp(key, foValueOf(g.seed, op.key, op.version))
	}
	g.ops = append(g.ops, op)
	g.queue[op.client] = append(g.queue[op.client], op)
}

func (g *foGen) dispatch(i int) {
	for g.open[i] < foWindow && len(g.queue[i]) > 0 {
		op := g.queue[i][0]
		g.queue[i] = g.queue[i][1:]
		op.since = g.ackedSubmit[op.key]
		op.submit = time.Now()
		g.inflight[i][string(op.op)] = append(g.inflight[i][string(op.op)], op)
		g.open[i]++
		g.c.submit(i, op.op)
	}
}

func (g *foGen) complete(cm completion) {
	k := string(cm.op)
	list := g.inflight[cm.client][k]
	if len(list) == 0 {
		g.fail("client %d: reply for an operation it did not have in flight", cm.client)
		return
	}
	op := list[0]
	if len(list) == 1 {
		delete(g.inflight[cm.client], k)
	} else {
		g.inflight[cm.client][k] = list[1:]
	}
	g.open[cm.client]--
	op.at = cm.at
	if !op.get {
		if len(cm.reply) != 1 || cm.reply[0] != kv.StatusOK {
			g.fail("put k%03d v%d replied %x", op.key, op.version, cm.reply)
			return
		}
		g.ackedAt[op.key][op.version] = cm.at
		if op.submit.After(g.ackedSubmit[op.key]) {
			g.ackedSubmit[op.key] = op.submit
		}
		return
	}
	var v uint64
	switch {
	case len(cm.reply) == 1 && cm.reply[0] == kv.StatusNotFound:
	case len(cm.reply) == 1+foValue && cm.reply[0] == kv.StatusOK:
		v = binary.BigEndian.Uint64(cm.reply[9:])
		if v == 0 || v > g.issued[op.key] || !bytes.Equal(cm.reply[1:], foValueOf(g.seed, op.key, v)) {
			g.fail("get k%03d returned a value no put wrote", op.key)
			return
		}
	default:
		g.fail("get k%03d replied %x", op.key, cm.reply)
		return
	}
	// The value read was current until at least valid: its put's reply
	// time (the initial absent value is superseded by any put). A put
	// whose reply came before another put of the key was submitted is
	// older than that put, so a get submitted after the newer put was
	// acknowledged must not return it.
	valid := time.Unix(0, 0)
	if at, ok := g.ackedAt[op.key][v]; ok {
		valid = at
	} else if v != 0 {
		valid = g.winEnd.Add(time.Hour) // not acknowledged yet: still current
	}
	bagKey := fmt.Sprint(cm.client, k)
	b := g.bags[bagKey]
	if b == nil {
		b = &getBag{}
		g.bags[bagKey] = b
	}
	b.since = append(b.since, op.since)
	b.valid = append(b.valid, valid)
	if len(list) > 1 {
		return // an identical get is still in flight
	}
	delete(g.bags, bagKey)
	sort.Slice(b.since, func(i, j int) bool { return b.since[i].Before(b.since[j]) })
	sort.Slice(b.valid, func(i, j int) bool { return b.valid[i].Before(b.valid[j]) })
	for i := range b.since {
		if b.valid[i].Before(b.since[i]) {
			g.fail("get k%03d returned a value overwritten before the get was submitted", op.key)
		}
	}
}
