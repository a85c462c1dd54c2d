package smr_test

import (
	"sync"
	"testing"
	"time"

	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	_ "github.com/xft-consensus/xft/internal/xpaxos" // registers the TCP link's default wire codec
)

// linkedNode is one node deployed on a live link, driven by a test.
type linkedNode struct {
	loop   *smr.Loop
	run    func() // launches the loop without blocking
	submit func(smr.Event)
	stop   func() // idempotent; waits for the loop and its deferred work
}

type openLink func(t *testing.T, node smr.Node) linkedNode

// openInProcess deploys node alone on a LiveRuntime.
func openInProcess(t *testing.T, node smr.Node) linkedNode {
	rt := smr.NewLiveRuntime()
	rt.AddNode(0, node)
	t.Cleanup(rt.Stop)
	return linkedNode{
		loop: rt.Loop(0), run: rt.Start, stop: rt.Stop,
		submit: func(ev smr.Event) { rt.Submit(0, ev) },
	}
}

// openTCP deploys node on a loopback transport.Node.
func openTCP(t *testing.T, node smr.Node) linkedNode {
	n, err := transport.NewNode(0, node, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	var running sync.WaitGroup
	t.Cleanup(func() {
		n.Stop()
		running.Wait()
	})
	return linkedNode{
		loop: n.Loop, stop: n.Stop, submit: n.Submit,
		run: func() {
			running.Add(1)
			go func() {
				defer running.Done()
				n.Run()
			}()
		},
	}
}

// TestLiveContract checks the live Loop's Env and lifecycle contract on
// both links that host it: every row must hold in-process and over TCP.
func TestLiveContract(t *testing.T) {
	links := []struct {
		name string
		open openLink
	}{
		{"inproc", openInProcess},
		{"tcp", openTCP},
	}
	checks := []struct {
		name  string
		check func(*testing.T, openLink)
	}{
		{"StartFirst", checkStartFirst},
		{"CancelAfterFireLeavesNoTombstones", checkNoTombstones},
		{"DeferSurvivesFullInbox", checkDeferSurvivesFullInbox},
		{"TimersFireDuringDefer", checkTimersFireDuringDefer},
		{"StopIdempotentWithoutRun", checkStopIdempotent},
		{"StopWaitsForDefer", checkStopWaitsForDefer},
		{"DeferStopStress", checkDeferStopStress},
	}
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			for _, c := range checks {
				t.Run(c.name, func(t *testing.T) { c.check(t, link.open) })
			}
		})
	}
}

// await fails the test unless ch is closed within five seconds.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func checkStartFirst(t *testing.T, open openLink) {
	p := &probe{}
	ln := open(t, p)
	ln.run()
	ln.submit(smr.Invoke{Op: []byte("op")})
	waitFor(t, func() bool { return len(p.snapshot()) >= 2 }, "events")
	evs := p.snapshot()
	if _, ok := evs[0].(smr.Start); !ok {
		t.Errorf("first event = %T, want smr.Start", evs[0])
	}
	if inv, ok := evs[1].(smr.Invoke); !ok || string(inv.Op) != "op" {
		t.Errorf("second event = %#v, want Invoke{op}", evs[1])
	}
}

// cancelAfterFireNode cancels each timer after its TimerFired was
// delivered — by contract a no-op. The regression: CancelTimer used to
// tombstone such ids in the cancelled map forever, an unbounded leak on
// long-running servers (every request sets and later cancels a timer).
type cancelAfterFireNode struct {
	env   smr.Env
	fired chan struct{}
}

func (n *cancelAfterFireNode) Init(env smr.Env) { n.env = env }
func (n *cancelAfterFireNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		// Cancelled before firing: must leave no state either.
		id := n.env.SetTimer(time.Hour, "never")
		n.env.CancelTimer(id)
		n.env.SetTimer(time.Millisecond, "soon")
	case smr.TimerFired:
		n.env.CancelTimer(ev.ID)
		close(n.fired)
	}
}

func checkNoTombstones(t *testing.T, open openLink) {
	node := &cancelAfterFireNode{fired: make(chan struct{})}
	ln := open(t, node)
	ln.run()
	await(t, node.fired, "the timer to fire")
	ln.stop() // the loop has exited: the timer maps are quiescent
	if pending, tombstones := ln.loop.TimerSizes(); pending != 0 || tombstones != 0 {
		t.Errorf("timer maps leaked: pending=%d tombstones=%d", pending, tombstones)
	}
}

// fullInboxNode parks its loop on the first Invoke so the test can fill
// the inbox before letting a Defer job complete.
type fullInboxNode struct {
	env     smr.Env
	parked  chan struct{} // closed when Step parks
	unpark  chan struct{}
	release chan struct{} // lets the deferred work return
	worked  chan struct{} // closed when it has
	applied chan struct{} // closed by the completion
	once    sync.Once
}

func (n *fullInboxNode) Init(env smr.Env) { n.env = env }
func (n *fullInboxNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		n.env.Defer("full-inbox",
			func() {
				<-n.release
				close(n.worked)
			},
			func() { close(n.applied) })
	case smr.Invoke:
		n.once.Do(func() {
			close(n.parked)
			<-n.unpark
		})
	case smr.Async:
		ev.Apply()
	}
}

func checkDeferSurvivesFullInbox(t *testing.T, open openLink) {
	node := &fullInboxNode{
		parked: make(chan struct{}), unpark: make(chan struct{}),
		release: make(chan struct{}), worked: make(chan struct{}),
		applied: make(chan struct{}),
	}
	ln := open(t, node)
	ln.run()
	ln.submit(smr.Invoke{})
	await(t, node.parked, "the loop to park")
	for i := 0; i < smr.InboxSize; i++ {
		ln.submit(smr.Invoke{})
	}
	close(node.release)
	await(t, node.worked, "the deferred work")
	// The check holds without this pause; it makes it likely that the
	// completion meets the full inbox rather than a draining one.
	time.Sleep(10 * time.Millisecond)
	close(node.unpark)
	await(t, node.applied, "the completion that met a full inbox")
}

// deferNode starts one slow deferred job plus a short timer and
// records the order in which the loop sees their events.
type deferNode struct {
	env     smr.Env
	workGo  chan struct{} // closed when work starts
	done    chan string   // event order as seen by Step
	workDur time.Duration
}

func (n *deferNode) Init(env smr.Env) { n.env = env }
func (n *deferNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		n.env.Defer("slow-verify",
			func() {
				close(n.workGo)
				time.Sleep(n.workDur)
			},
			func() { n.done <- "async" })
		n.env.SetTimer(time.Millisecond, "tick")
	case smr.TimerFired:
		n.done <- "timer:" + ev.Kind
	case smr.Async:
		ev.Apply()
	}
}

func checkTimersFireDuringDefer(t *testing.T, open openLink) {
	node := &deferNode{
		workGo:  make(chan struct{}),
		done:    make(chan string, 2),
		workDur: 300 * time.Millisecond,
	}
	ln := open(t, node)
	ln.run()
	await(t, node.workGo, "the deferred work to start")
	var order []string
	for i := 0; i < 2; i++ {
		select {
		case ev := <-node.done:
			order = append(order, ev)
		case <-time.After(5 * time.Second):
			t.Fatalf("saw only %v", order)
		}
	}
	if order[0] != "timer:tick" || order[1] != "async" {
		t.Fatalf("event order = %v, want the timer before the slow completion", order)
	}
}

// TestLiveDeferDoesNotDelayTimers is the event-loop liveness property
// the async crypto pipeline exists for: a slow deferred job must not
// delay timer delivery. Before the pipeline, a handler performing the
// same work inline would have stalled the loop past the timer.
func TestLiveDeferDoesNotDelayTimers(t *testing.T) {
	checkTimersFireDuringDefer(t, openInProcess)
}

func checkStopIdempotent(t *testing.T, open openLink) {
	ln := open(t, &deferChainNode{})
	ln.stop()
	ln.stop()
	ln = open(t, &deferChainNode{})
	ln.run()
	ln.stop()
	ln.stop()
}

// stopDeferNode defers work that outlives its loop.
type stopDeferNode struct {
	env     smr.Env
	started chan struct{}
	release chan struct{}
}

func (n *stopDeferNode) Init(env smr.Env) { n.env = env }
func (n *stopDeferNode) Step(ev smr.Event) {
	switch ev := ev.(type) {
	case smr.Start:
		n.env.Defer("outlives-loop",
			func() {
				close(n.started)
				<-n.release
			},
			func() {})
	case smr.Async:
		ev.Apply()
	}
}

// checkStopWaitsForDefer: Stop waits for in-flight deferred work
// without deadlocking — the completion's blocking Submit must yield to
// shutdown. (Whether a completion racing Stop still reaches Step is
// intentionally unspecified, like a message arriving mid-shutdown.)
func checkStopWaitsForDefer(t *testing.T, open openLink) {
	node := &stopDeferNode{started: make(chan struct{}), release: make(chan struct{})}
	ln := open(t, node)
	ln.run()
	await(t, node.started, "the deferred work to start")

	stopped := make(chan struct{})
	go func() {
		ln.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while deferred work was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(node.release)
	await(t, stopped, "Stop to return once the deferred work ended")
}

// TestLiveDeferStop is checkStopWaitsForDefer on the in-process link.
func TestLiveDeferStop(t *testing.T) {
	checkStopWaitsForDefer(t, openInProcess)
}

// checkDeferStopStress races continuous Defer traffic against Stop
// across many short-lived loops; run it under -race.
func checkDeferStopStress(t *testing.T, open openLink) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		node := &deferChainNode{}
		ln := open(t, node)
		ln.run()
		// Let the chains spin briefly so Stop lands mid-flight.
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		ln.stop()
		before := node.applied.Load()
		time.Sleep(2 * time.Millisecond)
		if after := node.applied.Load(); before != after {
			t.Fatalf("iteration %d: deferred work still completing after Stop (%d -> %d)", i, before, after)
		}
	}
}
