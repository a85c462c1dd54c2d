package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/xft-consensus/xft"
	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/smr"
)

// api-w1: the public API with default options (T = 1 on the in-process
// runtime) and two closed-loop callers at window 1 putting 64 B
// values. Only the application is observable from outside here, so the
// traced run wraps just the kv store.
const (
	apiCallers = 2
	apiKeys    = 1024
	apiValue   = 64
)

type apiCluster struct {
	cluster *xft.Cluster
	clients []*xft.Client
	stores  []*kv.Store
	mu      sync.Mutex
	views   map[xft.View]bool
}

func runAPI(o runOpts) (*result, error) {
	res := newResult()
	c, err := setupLoop(res, func(round int) (*apiCluster, func() error, error) {
		a := &apiCluster{views: map[xft.View]bool{}}
		var err error
		a.cluster, err = xft.NewCluster(xft.Options{
			T: 1,
			NewApp: func() xft.Application {
				st := kv.NewStore()
				id := smr.NodeID(len(a.stores))
				a.stores = append(a.stores, st)
				if o.rec != nil {
					return &tracedApp{inner: st, node: id, rec: o.rec}
				}
				return st
			},
			OnViewChange: func(_ xft.NodeID, v xft.View) {
				a.mu.Lock()
				a.views[v] = true
				a.mu.Unlock()
			},
		})
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < apiCallers; i++ {
			a.clients = append(a.clients, a.cluster.NewClient())
		}
		return a, func() error {
			rep, err := a.clients[0].Invoke(kv.PutOp("setup", []byte{byte(round)}))
			if err == nil && (len(rep) != 1 || rep[0] != kv.StatusOK) {
				err = fmt.Errorf("first operation replied %x", rep)
			}
			return err
		}, nil
	}, func(a *apiCluster) { a.cluster.Stop() })
	if err != nil {
		return nil, err
	}
	res.attempted += setupRounds

	type callerResult struct {
		attempted, failed, ops int
		lat, lag               latencies
		recs                   []opRec
		errs                   []string
	}
	results := make([]callerResult, apiCallers)
	start := time.Now()
	winStart, winEnd := start.Add(warmup), start.Add(warmup+o.seconds)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			rng := rand.New(rand.NewSource(o.seed*apiCallers + int64(i)))
			value := make([]byte, apiValue)
			due := start
			for time.Now().Before(winEnd) {
				rng.Read(value)
				op := kv.PutOp(fmt.Sprintf("k%04d", rng.Intn(apiKeys)), value)
				r.lag.add(time.Since(due))
				r.attempted++
				rep, err := c.clients[i].Invoke(op)
				now := time.Now()
				switch {
				case err != nil:
					r.failed++
					r.errs = append(r.errs, err.Error())
				case len(rep) != 1 || rep[0] != kv.StatusOK:
					r.failed++
					r.errs = append(r.errs, fmt.Sprintf("put replied %x", rep))
				}
				if !now.Before(winStart) && now.Before(winEnd) {
					r.ops++
					r.lat.add(now.Sub(due))
					r.recs = append(r.recs, opRec{now, now.Sub(due)})
				}
				due = now
			}
		}(i)
	}
	// The window starts after the warm-up, on this goroutine.
	time.Sleep(time.Until(winStart))
	win := startWindow()
	o.rec.enable(true)
	time.Sleep(time.Until(winEnd))
	win.stop()
	o.rec.enable(false)
	wg.Wait()

	var (
		lat, lag latencies
		recs     []opRec
	)
	ops := 0
	for _, r := range results {
		res.attempted += r.attempted
		res.failed += r.failed
		for _, e := range r.errs {
			res.checkf("%s", e)
		}
		ops += r.ops
		lat = append(lat, r.lat...)
		lag = append(lag, r.lag...)
		recs = append(recs, r.recs...)
	}
	win.report(res, ops)
	latencyMetrics(res, lat, lag)
	res.notef("whole window: %.1f ops/s, %d committed ops", float64(ops)/win.elapsed.Seconds(), ops)
	win.sliceMedians(res, recs)

	c.cluster.Stop()
	if len(c.views) != 0 {
		res.checkf("bypass prediction: %d view changes on a fault-free run", len(c.views))
	}
	// View 0's synchronous group is replicas 0 and 1.
	if a, b := c.stores[0].Snapshot(), c.stores[1].Snapshot(); !bytes.Equal(a, b) {
		res.checkf("active replicas 0 and 1 diverge at quiescence (%d vs %d snapshot bytes)", len(a), len(b))
	}
	if o.rec != nil {
		fillLayers(res, o.rec, ops, win.elapsed)
		res.layer["xpaxos.view_changes"] = float64(len(c.views))
	}
	return res, nil
}
