package smr

import (
	"sync"
	"time"
)

// LiveRuntime runs nodes on Loops linked in-process: each node is a
// goroutine with real timers, and Send is a direct inbox hand-off. It
// is the deployment mode behind the public xft package. The same
// protocol code that runs under the discrete-event simulator runs here
// unchanged.
type LiveRuntime struct {
	mu      sync.Mutex
	nodes   map[NodeID]*liveNode
	start   time.Time
	started bool
	stopped bool
}

// NewLiveRuntime returns an empty runtime; add nodes, then Start.
func NewLiveRuntime() *LiveRuntime {
	return &LiveRuntime{nodes: make(map[NodeID]*liveNode), start: time.Now()}
}

// liveNode is a Loop on the in-process link.
type liveNode struct {
	*Loop
	rt *LiveRuntime
}

// AddNode registers a node. Nodes added after Start are initialized
// and launched immediately (used to attach clients to a running
// cluster). Adding a node to a stopped runtime panics: its loop could
// never run, and every Submit would be silently lost.
func (rt *LiveRuntime) AddNode(id NodeID, node Node) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stopped {
		panic("smr: AddNode on a stopped LiveRuntime")
	}
	if _, dup := rt.nodes[id]; dup {
		panic("smr: duplicate live node")
	}
	ln := &liveNode{Loop: NewLoop(id, node), rt: rt}
	ln.start = rt.start
	rt.nodes[id] = ln
	if rt.started {
		node.Init(ln)
		ln.spawn()
	}
}

// Start initializes every node and launches its loop. A runtime is
// single-use: Start after Stop panics rather than silently running
// nothing.
func (rt *LiveRuntime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stopped {
		panic("smr: Start on a stopped LiveRuntime")
	}
	if rt.started {
		return
	}
	rt.started = true
	rt.start = time.Now()
	for _, ln := range rt.nodes {
		ln.start = rt.start
		ln.node.Init(ln)
	}
	for _, ln := range rt.nodes {
		ln.spawn()
	}
}

// Stop stops every loop and waits for it and its deferred work. It is
// idempotent; the runtime cannot be restarted afterwards (Start/AddNode
// fail loudly).
func (rt *LiveRuntime) Stop() {
	rt.mu.Lock()
	rt.stopped = true
	loops := make([]*liveNode, 0, len(rt.nodes))
	for _, ln := range rt.nodes {
		loops = append(loops, ln)
	}
	rt.mu.Unlock()
	for _, ln := range loops {
		ln.Stop()
	}
}

// Submit injects an event (typically Invoke) into a node's loop,
// waiting for inbox room or the node's stop. Unknown ids are ignored.
// Drivers need the wait: an open-loop client that silently loses an
// Invoke undercounts its window forever, unlike lost network traffic
// which retransmission recovers.
func (rt *LiveRuntime) Submit(id NodeID, ev Event) {
	if ln := rt.node(id); ln != nil {
		ln.Submit(ev)
	}
}

func (rt *LiveRuntime) node(id NodeID) *liveNode {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodes[id]
}

// Send implements Env: direct inbox delivery, dropping on overflow.
func (ln *liveNode) Send(to NodeID, m Message) {
	if dst := ln.rt.node(to); dst != nil {
		dst.offer(Recv{From: ln.id, Msg: m})
	}
}

var _ Env = (*liveNode)(nil)
