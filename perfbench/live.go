package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/transport"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// A tcpCluster is a 3-replica (t = 1) XPaxos deployment over loopback
// TCP, configured like cmd/xft-server (real Ed25519, Δ = 500 ms,
// checkpoints every 256 batches, fault detection on) but plaintext,
// with every node in this process.
const (
	clusterN = 3
	clusterT = 1
	delta    = 500 * time.Millisecond
)

type tcpConfig struct {
	seed    int64
	clients int
	window  int
	// walDir, when set, gives each replica a wal.Open log under it.
	walDir string
	// probe enables keepalive probing (interval; timeout is 5x).
	probe time.Duration
	rec   *recorder
	// onCommit receives every client completion, on the client's loop.
	onCommit func(client int, op, reply []byte, at time.Time)
}

type tcpCluster struct {
	cfg   tcpConfig
	suite *crypto.Ed25519Suite
	peers map[smr.NodeID]string

	replicas [clusterN]*replicaSlot
	clients  []*clientSlot

	// views holds every view some replica installed; maxView the
	// highest.
	mu      sync.Mutex
	views   map[smr.View]time.Time
	maxView atomic.Uint64

	// Traced-run state, read on replica loops through tracedNode.onStep.
	executed [clusterN]atomic.Uint64
	peerDown chan peerDownEvent
	batches  atomic.Int64 // committed batches, counted at the primary
	batchOps atomic.Int64
}

type peerDownEvent struct {
	at   time.Time
	peer smr.NodeID
}

type replicaSlot struct {
	id    smr.NodeID
	rep   *xpaxos.Replica
	store *kv.Store
	node  *transport.Node
	done  chan struct{}
	log   *durableLog
	down  bool
}

type clientSlot struct {
	id   smr.NodeID
	cl   *xpaxos.Client
	node *transport.Node
	done chan struct{}
}

// newTCPCluster builds the suite, the replicas (recovering any WAL
// under cfg.walDir) and the clients, and starts every node.
func newTCPCluster(cfg tcpConfig) (*tcpCluster, error) {
	c := &tcpCluster{
		cfg:      cfg,
		suite:    crypto.NewEd25519Suite(clusterN+1024, cfg.seed),
		peers:    map[smr.NodeID]string{},
		views:    map[smr.View]time.Time{},
		peerDown: make(chan peerDownEvent, 64), // a few per crash; overflow is dropped
	}
	if cfg.rec != nil {
		role := c.role
		cfg.rec.roleOf.Store(&role)
		codecRec.Store(cfg.rec)
	}
	// Listen everywhere first so the shared peer map is complete before
	// any node runs; nodes only read it after Run.
	for i := range c.replicas {
		s := &replicaSlot{id: smr.NodeID(i)}
		if err := c.buildReplica(s, "127.0.0.1:0"); err != nil {
			c.Stop()
			return nil, err
		}
		c.replicas[i] = s
		c.peers[s.id] = s.node.Addr()
	}
	for i := 0; i < cfg.clients; i++ {
		s, err := c.buildClient(i)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.clients = append(c.clients, s)
		c.peers[s.id] = s.node.Addr()
	}
	for _, s := range c.replicas {
		s.start()
	}
	for _, s := range c.clients {
		s.done = make(chan struct{})
		go func(s *clientSlot) {
			defer close(s.done)
			s.node.Run()
		}(s)
	}
	return c, nil
}

// role names a replica's role in the highest installed view.
func (c *tcpCluster) role(id smr.NodeID) string {
	if id.IsClient() {
		return "client"
	}
	g := xpaxos.SyncGroup(clusterN, clusterT, smr.View(c.maxView.Load()))
	switch id {
	case g[0]:
		return "primary"
	case g[1]:
		return "follower"
	}
	return "passive"
}

func (c *tcpCluster) primary() smr.NodeID {
	return xpaxos.Primary(clusterN, clusterT, smr.View(c.maxView.Load()))
}

// buildReplica creates s's replica (replaying its WAL, if any) and a
// transport node listening on addr.
func (c *tcpCluster) buildReplica(s *replicaSlot, addr string) error {
	cfg, rec, id := c.cfg, c.cfg.rec, s.id
	s.store = kv.NewStore()
	var app smr.Application = s.store
	var suite crypto.Suite = c.suite
	if rec != nil {
		app = &tracedApp{inner: s.store, node: id, rec: rec}
		suite = &tracedSuite{inner: c.suite, node: id, rec: rec}
	}
	xcfg := xpaxos.Config{
		N: clusterN, T: clusterT,
		Suite:              crypto.NewMeter(suite),
		Delta:              delta,
		CheckpointInterval: 256,
		EnableFD:           true,
		OnViewChange:       func(v smr.View, _ time.Duration) { c.installed(v) },
	}
	if rec != nil {
		xcfg.Observer = func(cm smr.Committed) {
			if id == xpaxos.Primary(clusterN, clusterT, cm.View) {
				c.batchOps.Add(1)
				if cm.First {
					c.batches.Add(1)
				}
			}
		}
	}
	if cfg.walDir != "" {
		l, err := wal.Open(filepath.Join(cfg.walDir, fmt.Sprintf("replica-%d", id)), wal.Options{})
		if err != nil {
			return fmt.Errorf("open WAL of replica %d: %w", id, err)
		}
		s.log = &durableLog{log: l, node: id, rec: rec}
		xcfg.WAL = s.log
	}
	replayStart := time.Now()
	s.rep = xpaxos.NewReplica(id, xcfg, app)
	if s.log != nil {
		rec.count("wal.replay", c.role(id), int64(time.Since(replayStart)), 0)
	}
	var node smr.Node = s.rep
	var opts []transport.Option
	if rec != nil {
		tn := &tracedNode{inner: s.rep, id: id, rec: rec, name: "xpaxos.step"}
		tn.onStep = func(ev smr.Event) {
			c.executed[id].Store(uint64(s.rep.Executed()))
			if pd, ok := ev.(smr.PeerDown); ok {
				select {
				case c.peerDown <- peerDownEvent{time.Now(), pd.Peer}:
				default:
				}
			}
		}
		node = tracedReplica{tn}
		opts = append(opts, transport.WithCodec(tracedCodec(id)))
	}
	if cfg.probe > 0 {
		opts = append(opts, transport.WithKeepalive(cfg.probe, 5*cfg.probe))
	}
	n, err := transport.NewNode(id, node, addr, c.peers, opts...)
	if err != nil {
		if s.log != nil {
			s.log.log.Close()
		}
		return err
	}
	s.node = n
	return nil
}

func (s *replicaSlot) start() {
	s.done = make(chan struct{})
	s.down = false
	go func() {
		defer close(s.done)
		s.node.Run()
	}()
}

func (c *tcpCluster) buildClient(i int) (*clientSlot, error) {
	id := smr.ClientIDBase + smr.NodeID(i)
	rec := c.cfg.rec
	var suite crypto.Suite = c.suite
	if rec != nil {
		suite = &tracedSuite{inner: c.suite, node: id, rec: rec}
	}
	cl, err := xpaxos.NewClient(id, xpaxos.ClientConfig{
		N: clusterN, T: clusterT,
		Suite:          crypto.NewMeter(suite),
		RequestTimeout: 4 * delta,
		Window:         c.cfg.window,
		OnCommit: func(op, reply []byte, _ time.Duration) {
			c.cfg.onCommit(i, op, reply, time.Now())
		},
	})
	if err != nil {
		return nil, err
	}
	var node smr.Node = cl
	var opts []transport.Option
	if rec != nil {
		node = &tracedNode{inner: cl, id: id, rec: rec, name: "client.step"}
		opts = append(opts, transport.WithCodec(tracedCodec(id)))
	}
	if c.cfg.probe > 0 {
		opts = append(opts, transport.WithKeepalive(c.cfg.probe, 5*c.cfg.probe))
	}
	n, err := transport.NewNode(id, node, "127.0.0.1:0", c.peers, opts...)
	if err != nil {
		return nil, err
	}
	return &clientSlot{id: id, cl: cl, node: n}, nil
}

func (c *tcpCluster) installed(v smr.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[v]; !ok {
		c.views[v] = time.Now()
	}
	for {
		cur := c.maxView.Load()
		if uint64(v) <= cur || c.maxView.CompareAndSwap(cur, uint64(v)) {
			return
		}
	}
}

// viewChanges returns the number of distinct views installed.
func (c *tcpCluster) viewChanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.views)
}

// firstViewWithout returns when the first view installed after t
// whose synchronous group excludes replica id was installed.
func (c *tcpCluster) firstViewWithout(id smr.NodeID, t time.Time) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best time.Time
	for v, at := range c.views {
		if at.Before(t) || xpaxos.InGroup(clusterN, clusterT, v, id) {
			continue
		}
		if best.IsZero() || at.Before(best) {
			best = at
		}
	}
	return best, !best.IsZero()
}

// submit hands op to client i's loop.
func (c *tcpCluster) submit(i int, op []byte) {
	c.clients[i].node.Submit(smr.Invoke{Op: op})
}

// crash stops replica i's transport node and, with a WAL, keeps only
// what a completed Sync covered: a killed process keeps only what
// reached the disk. It returns the number of records discarded.
func (c *tcpCluster) crash(i int) (int, error) {
	s := c.replicas[i]
	s.node.Stop()
	<-s.done // Run returns after every deferred job has finished
	s.down = true
	if s.log == nil {
		return 0, nil
	}
	durable := s.log.durable.Load()
	if err := s.log.log.Close(); err != nil {
		return 0, err
	}
	return truncateAfter(s.log.log.Dir(), durable)
}

// truncateAfter cuts the segmented log in dir back to the records with
// LSN <= keep, using only the exported segment inspection.
func truncateAfter(dir string, keep uint64) (int, error) {
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		return 0, err
	}
	discarded := 0
	for _, seg := range segs {
		recs, err := wal.InspectSegment(seg)
		if err != nil {
			return discarded, err
		}
		cut := -1
		for j, r := range recs {
			if r.LSN > keep {
				cut = j
				break
			}
		}
		if cut < 0 {
			continue
		}
		discarded += len(recs) - cut
		if cut == 0 && seg != segs[0] {
			if err := os.Remove(seg); err != nil {
				return discarded, err
			}
			continue
		}
		if err := os.Truncate(seg, recs[cut].Offset); err != nil {
			return discarded, err
		}
	}
	return discarded, nil
}

// restart rebuilds replica i from its WAL on its old address.
func (c *tcpCluster) restart(i int) error {
	s := c.replicas[i]
	if err := c.buildReplica(s, c.peers[s.id]); err != nil {
		return err
	}
	s.start()
	return nil
}

// sendStats sums the transport's per-peer drop counters and reports
// the deepest send queue over the live nodes.
func (c *tcpCluster) sendStats() (drops uint64, queued int) {
	var nodes []*transport.Node
	for _, s := range c.replicas {
		if !s.down {
			nodes = append(nodes, s.node)
		}
	}
	for _, s := range c.clients {
		nodes = append(nodes, s.node)
	}
	for _, n := range nodes {
		for _, p := range n.Stats().Peers {
			drops += p.Drops
			queued = max(queued, p.Queued)
		}
	}
	return drops, queued
}

// intakeShed sums the live replicas' shed counters.
func (c *tcpCluster) intakeShed() uint64 {
	var shed uint64
	for _, s := range c.replicas {
		if !s.down {
			if in := s.node.Stats().Intake; in != nil {
				shed += in.Shed
			}
		}
	}
	return shed
}

// Stop stops every node and waits for it; WALs are closed.
func (c *tcpCluster) Stop() {
	for _, s := range c.clients {
		s.node.Stop()
		if s.done != nil {
			<-s.done
		}
	}
	for _, s := range c.replicas {
		if s == nil || s.node == nil || s.down {
			continue
		}
		s.node.Stop()
		if s.done != nil {
			<-s.done
		}
		s.down = true
		if s.log != nil {
			s.log.log.Close()
		}
	}
}
