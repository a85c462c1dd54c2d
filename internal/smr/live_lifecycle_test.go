package smr_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
)

// deferChainNode keeps a fixed number of Defer chains alive: every
// completion immediately submits the next link. It maximizes the
// window in which a Defer's wg.Add can race a concurrent Stop — the
// regression behind the deferWg split.
type deferChainNode struct {
	env     smr.Env
	applied atomic.Int64
}

func (n *deferChainNode) Init(env smr.Env) { n.env = env }
func (n *deferChainNode) Step(ev smr.Event) {
	switch e := ev.(type) {
	case smr.Start:
		for i := 0; i < 4; i++ {
			n.spawn()
		}
	case smr.Async:
		e.Apply()
	}
}

func (n *deferChainNode) spawn() {
	n.env.Defer("chain", runtime.Gosched, func() {
		n.applied.Add(1)
		n.spawn()
	})
}

// TestLiveDeferStopStress races continuous Defer traffic against Stop
// across many short-lived runtimes. Under -race the old code — Defer
// adding to the same WaitGroup Stop was waiting on — reported a
// WaitGroup misuse; the split deferWg makes the shutdown sequence
// (run loops first, then deferred work) race-free by construction.
func TestLiveDeferStopStress(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		rt := smr.NewLiveRuntime()
		nodes := make([]*deferChainNode, 3)
		for j := range nodes {
			nodes[j] = &deferChainNode{}
			rt.AddNode(smr.NodeID(j), nodes[j])
		}
		rt.Start()
		// Let the chains spin briefly so Stop lands mid-flight.
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		rt.Stop()
		// After Stop returns, no deferred goroutine may still run: the
		// applied counter must be quiescent.
		before := int64(0)
		for _, n := range nodes {
			before += n.applied.Load()
		}
		time.Sleep(2 * time.Millisecond)
		after := int64(0)
		for _, n := range nodes {
			after += n.applied.Load()
		}
		if before != after {
			t.Fatalf("iteration %d: deferred work still completing after Stop (%d -> %d)", i, before, after)
		}
	}
}

// TestLiveStopIdempotent covers the restart-misbehavior satellite:
// Stop used to close every node's stop channel unconditionally, so a
// second Stop panicked on a closed channel.
func TestLiveStopIdempotent(t *testing.T) {
	rt := smr.NewLiveRuntime()
	rt.AddNode(0, &deferChainNode{})
	rt.Start()
	rt.Stop()
	rt.Stop() // must be a no-op, not a double-close panic
}

// TestLiveStopWithoutStart: stopping a never-started runtime must not
// hang or panic (no goroutines to wait for).
func TestLiveStopWithoutStart(t *testing.T) {
	rt := smr.NewLiveRuntime()
	rt.AddNode(0, &deferChainNode{})
	rt.Stop()
	rt.Stop()
}

// TestLivePostStopUseFailsLoudly: Start and AddNode on a stopped
// runtime used to be silent no-ops that leaked goroutines into dead
// stop channels; now they panic.
func TestLivePostStopUseFailsLoudly(t *testing.T) {
	rt := smr.NewLiveRuntime()
	rt.AddNode(0, &deferChainNode{})
	rt.Start()
	rt.Stop()

	mustPanic(t, "Start after Stop", func() { rt.Start() })
	mustPanic(t, "AddNode after Stop", func() { rt.AddNode(1, &deferChainNode{}) })

	// Submit must stay safe (no panic, no hang) for callers that race
	// shutdown, even once the dead loop's inbox is full.
	for i := 0; i <= smr.InboxSize; i++ {
		rt.Submit(0, smr.Invoke{})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
