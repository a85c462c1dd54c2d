package smr

import (
	"sync"
	"time"
)

// inboxSize bounds each loop's event queue. What overflow does depends
// on who delivers: Submit waits for room, offer drops.
const inboxSize = 4096

// Loop is the live event loop one node runs on: an inbox, real timers,
// Defer goroutines and the node's lifecycle. It implements every Env
// method except Send, which belongs to the link that carries messages:
// LiveRuntime's in-process link or transport.Node's TCP link. The link
// embeds the Loop and adds Send, so both links share one loop body and
// one implementation of the rest of the Env contract.
type Loop struct {
	id    NodeID
	node  Node
	start time.Time
	inbox chan Event

	// timers is owned by the loop goroutine: Set/Cancel run from Step,
	// Deliver from Run.
	timers *TimerSet

	stop chan struct{} // closed once by Stop
	done chan struct{} // closed when Run returns

	mu      sync.Mutex
	running bool
	stopped bool

	// deferWg counts Defer goroutines. Defer is only called from the
	// loop goroutine, so once Run's loop exits no Add can follow and
	// waiting on the group is race-free.
	deferWg sync.WaitGroup
}

// NewLoop returns a loop for node; Now counts from this call.
func NewLoop(id NodeID, node Node) *Loop {
	return &Loop{
		id: id, node: node, start: time.Now(),
		inbox:  make(chan Event, inboxSize),
		timers: NewTimerSet(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Run delivers Start, then steps inbox events until Stop, and returns
// once every Defer job has finished. The caller initializes the node
// first. Only the first call runs the loop: a repeated call, or one
// after Stop, returns at once.
func (l *Loop) Run() {
	if l.claim() {
		l.run()
	}
}

// spawn is Run on a new goroutine. The loop is claimed before the
// goroutine starts, so a Stop that follows always waits for it.
func (l *Loop) spawn() {
	if l.claim() {
		go l.run()
	}
}

// claim marks the loop as running unless it already runs or has been
// stopped; Stop waits for a claimed loop.
func (l *Loop) claim() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running || l.stopped {
		return false
	}
	l.running = true
	return true
}

func (l *Loop) run() {
	defer close(l.done)
	defer l.deferWg.Wait()
	l.node.Step(Start{})
	for {
		select {
		case <-l.stop:
			return
		case ev := <-l.inbox:
			if tf, ok := ev.(TimerFired); ok && !l.timers.Deliver(tf) {
				continue
			}
			l.node.Step(ev)
		}
	}
}

// Stop ends the loop and waits for Run to return and for in-flight
// Defer work. It is idempotent and works whether or not Run was called.
// It must not be called from the loop goroutine.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		close(l.stop)
	}
	running := l.running
	l.mu.Unlock()
	if running {
		<-l.done
	}
	l.deferWg.Wait()
}

// Submit hands ev to the loop, waiting for inbox room; it gives up once
// the loop stops. Events that must not be lost come through here:
// timers, Defer completions, health events, TCP receives (whose
// blocking is the link's backpressure) and driver Invokes.
func (l *Loop) Submit(ev Event) {
	select {
	case l.inbox <- ev:
	case <-l.stop:
	}
}

// offer hands ev to the loop without waiting, dropping it when the
// inbox is full — right for in-process messages, which the protocols
// tolerate losing as they would on a network.
func (l *Loop) offer(ev Event) {
	select {
	case l.inbox <- ev:
	default:
	}
}

// ID implements Env.
func (l *Loop) ID() NodeID { return l.id }

// Now implements Env.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// SetTimer implements Env. TimerFired events go through Submit and are
// never dropped: only delivery clears the timer's bookkeeping.
func (l *Loop) SetTimer(d time.Duration, kind string) TimerID {
	return l.timers.Set(d, kind, func(tf TimerFired) { l.Submit(tf) })
}

// CancelTimer implements Env.
func (l *Loop) CancelTimer(id TimerID) { l.timers.Cancel(id) }

// Defer implements Env: work runs on its own goroutine — typically
// fanning out further through a crypto worker pool — and the completion
// re-enters the loop as an Async event through Submit. Completions are
// never dropped: protocol state machines track in-flight deferred work,
// and a lost completion would strand that bookkeeping forever.
//
// Jobs of different kinds run concurrently with no ordering guarantee;
// callers needing FIFO (the replica's durable WAL writer, which must
// append records in commit order) keep one job in flight and dispatch
// the next from the previous apply.
func (l *Loop) Defer(kind string, work func(), apply func()) {
	l.deferWg.Add(1)
	go func() {
		defer l.deferWg.Done()
		work()
		l.Submit(Async{Kind: kind, Apply: apply})
	}()
}
