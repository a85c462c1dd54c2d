package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xft-consensus/xft/internal/apps/kv"
	"github.com/xft-consensus/xft/internal/crypto"
	"github.com/xft-consensus/xft/internal/smr"
	"github.com/xft-consensus/xft/internal/wal"
	"github.com/xft-consensus/xft/internal/wire"
	"github.com/xft-consensus/xft/internal/xpaxos"
)

// The traced run observes each layer from outside: every wrapper below
// sits on a public interface the program already calls through
// (smr.Node, smr.Env, crypto.Suite, the wire codec registry, wal.WAL,
// smr.Application) and records one span per call. Spans are kept in
// memory (up to maxSpans; the rest are only aggregated) and written out
// when the run ends.

// maxSpans caps the spans kept for the dump (about 100 B each).
const maxSpans = 1 << 18

// span is one recorded call. Times are nanoseconds since the recorder
// started.
type span struct {
	id, parent uint64
	name       string
	node       smr.NodeID
	role       string
	start, end int64
	// child is the time synchronous child spans (same goroutine,
	// nested inside this one) covered; self time is end-start-child.
	child int64
	gid   uint64
}

type aggKey struct{ name, role string }

type agg struct {
	n           int64
	total, self int64 // ns
	sum         float64
}

// recorder collects spans and per-(layer, role) aggregates while on.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	// roleOf names a node's current role ("primary", "follower",
	// "passive", "client").
	roleOf atomic.Pointer[func(smr.NodeID) string]

	mu      sync.Mutex
	nextID  uint64
	open    map[uint64][]*span // per goroutine: open container spans
	spans   []span
	dropped int
	aggs    map[aggKey]*agg
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), open: map[uint64][]*span{}, aggs: map[aggKey]*agg{}}
	fn := func(id smr.NodeID) string {
		if id.IsClient() {
			return "client"
		}
		return "replica"
	}
	r.roleOf.Store(&fn)
	return r
}

// enable turns recording on or off (nil receivers stay off).
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// goid returns the calling goroutine's id. It costs about a
// microsecond, which the tracing-overhead report includes.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span on the calling goroutine. A container span (a
// Step or a Defer work function) becomes the parent of spans begun
// later on the same goroutine until it ends; parent, when non-zero,
// overrides the goroutine's current container (a Defer work span's
// parent is the Step that issued it). It returns nil when the recorder
// is off (a nil recorder is always off).
func (r *recorder) begin(name string, node smr.NodeID, container bool, parent uint64) *span {
	if r == nil || !r.on.Load() {
		return nil
	}
	return r.beginOn(goid(), name, node, container, parent)
}

// beginOn is begin for a caller that already knows its goroutine id.
// gid 0 opens a root span that no other span nests in or under (the
// codec runs on transport goroutines that record nothing else).
func (r *recorder) beginOn(gid uint64, name string, node smr.NodeID, container bool, parent uint64) *span {
	if r == nil || !r.on.Load() {
		return nil
	}
	role := (*r.roleOf.Load())(node)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	sp := &span{id: r.nextID, name: name, node: node, role: role, gid: gid, parent: parent}
	if gid != 0 {
		if st := r.open[gid]; parent == 0 && len(st) > 0 {
			sp.parent = st[len(st)-1].id
		}
		if container {
			r.open[gid] = append(r.open[gid], sp)
		}
	}
	sp.start = r.now()
	return sp
}

// end closes sp (nil is a no-op) and adds val to its aggregate sum.
func (r *recorder) end(sp *span, container bool, val float64) {
	if sp == nil {
		return
	}
	sp.end = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.open[sp.gid]
	if container && sp.gid != 0 && len(st) > 0 {
		st = st[:len(st)-1]
		if len(st) == 0 {
			delete(r.open, sp.gid)
		} else {
			r.open[sp.gid] = st
		}
	}
	if len(st) > 0 && st[len(st)-1].id == sp.parent {
		st[len(st)-1].child += sp.end - sp.start
	}
	r.addLocked(sp.name, sp.role, sp.end-sp.start, sp.end-sp.start-sp.child, val)
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, *sp)
	} else {
		r.dropped++
	}
}

// count adds an observation that is not a call (a wait, a byte count).
func (r *recorder) count(name, role string, ns int64, val float64) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.addLocked(name, role, ns, ns, val)
	r.mu.Unlock()
}

func (r *recorder) addLocked(name, role string, total, self int64, val float64) {
	k := aggKey{name, role}
	a := r.aggs[k]
	if a == nil {
		a = &agg{}
		r.aggs[k] = a
	}
	a.n++
	a.total += total
	a.self += self
	a.sum += val
}

// get sums the aggregates of name over the given roles (all roles when
// none are given).
func (r *recorder) get(name string, roles ...string) agg {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out agg
	for k, a := range r.aggs {
		if k.name != name {
			continue
		}
		if len(roles) > 0 && !contains(roles, k.role) {
			continue
		}
		out.n += a.n
		out.total += a.total
		out.self += a.self
		out.sum += a.sum
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// dump writes the kept spans as tab-separated lines:
// id parent name node role start_ns end_ns self_ns.
func (r *recorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].id < r.spans[j].id })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tnode\trole\tstart_ns\tend_ns\tself_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.node, s.role, s.start, s.end, s.end-s.start-s.child)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// smr.Node and smr.Env
// ---------------------------------------------------------------------------

// tracedNode wraps a replica or client. Step is a container span; the
// Env it hands the inner node wraps Defer so each work function is a
// span whose parent is the issuing Step.
type tracedNode struct {
	inner smr.Node
	id    smr.NodeID
	rec   *recorder
	name  string
	// onStep runs on the node's loop after every Step (the cluster
	// reads loop-owned replica state there).
	onStep func(ev smr.Event)
	// cur is the open Step span and gid the loop goroutine's id; only
	// the loop goroutine touches them.
	cur *span
	gid uint64
}

// tracedReplica forwards the replica's intake statistics, so the
// transport's Stats().Intake stays populated under tracing.
type tracedReplica struct{ *tracedNode }

func (t tracedReplica) IntakeStats() smr.IntakeStats {
	return t.inner.(*xpaxos.Replica).IntakeStats()
}

func (t *tracedNode) Init(env smr.Env) { t.inner.Init(&tracedEnv{Env: env, node: t}) }

func (t *tracedNode) Step(ev smr.Event) {
	if t.gid == 0 && t.rec.on.Load() {
		t.gid = goid()
	}
	t.cur = t.rec.beginOn(t.gid, t.name, t.id, true, 0)
	t.inner.Step(ev)
	t.rec.end(t.cur, true, 0)
	t.cur = nil
	if t.onStep != nil {
		t.onStep(ev)
	}
}

type tracedEnv struct {
	smr.Env
	node *tracedNode
}

func (e *tracedEnv) Defer(kind string, work func(), apply func()) {
	rec, node := e.node.rec, e.node.id
	if !rec.on.Load() {
		e.Env.Defer(kind, work, apply)
		return
	}
	var parent uint64
	if e.node.cur != nil {
		parent = e.node.cur.id
	}
	called := rec.now()
	var workEnd int64
	e.Env.Defer(kind, func() {
		sp := rec.begin("smr.defer."+kind, node, true, parent)
		if sp != nil {
			rec.count("smr.defer_wait."+kind, sp.role, sp.start-called, 0)
		}
		work()
		rec.end(sp, true, 0)
		workEnd = rec.now()
	}, func() {
		// The runtime hands apply to the loop through a channel send
		// after work returns, which orders the workEnd write before
		// this read.
		rec.count("smr.apply_wait", (*rec.roleOf.Load())(node), rec.now()-workEnd, 0)
		apply()
	})
}

// ---------------------------------------------------------------------------
// crypto.Suite
// ---------------------------------------------------------------------------

// tracedSuite attributes one node's cryptography. It forwards
// crypto.BatchSuite, so crypto.Pool keeps batch-verifying exactly as it
// does untraced.
type tracedSuite struct {
	inner crypto.Suite
	node  smr.NodeID
	rec   *recorder
}

func (s *tracedSuite) Sign(id crypto.NodeID, data []byte) crypto.Signature {
	sp := s.rec.begin("crypto.sign", s.node, false, 0)
	defer s.rec.end(sp, false, 1)
	return s.inner.Sign(id, data)
}

func (s *tracedSuite) Verify(id crypto.NodeID, data []byte, sig crypto.Signature) bool {
	sp := s.rec.begin("crypto.verify", s.node, false, 0)
	defer s.rec.end(sp, false, 1)
	return s.inner.Verify(id, data, sig)
}

func (s *tracedSuite) MAC(from, to crypto.NodeID, data []byte) crypto.MAC {
	sp := s.rec.begin("crypto.mac", s.node, false, 0)
	defer s.rec.end(sp, false, 1)
	return s.inner.MAC(from, to, data)
}

func (s *tracedSuite) VerifyMAC(from, to crypto.NodeID, data []byte, mac crypto.MAC) bool {
	sp := s.rec.begin("crypto.mac", s.node, false, 0)
	defer s.rec.end(sp, false, 1)
	return s.inner.VerifyMAC(from, to, data, mac)
}

func (s *tracedSuite) SignatureSize() int { return s.inner.SignatureSize() }
func (s *tracedSuite) MACSize() int       { return s.inner.MACSize() }

func (s *tracedSuite) SupportsBatchVerify() bool {
	bs, ok := s.inner.(crypto.BatchSuite)
	return ok && bs.SupportsBatchVerify()
}

func (s *tracedSuite) BatchVerify(jobs []crypto.VerifyJob) bool {
	sp := s.rec.begin("crypto.batch_verify", s.node, false, 0)
	defer s.rec.end(sp, false, float64(len(jobs)))
	return s.inner.(crypto.BatchSuite).BatchVerify(jobs)
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

// codecRec is the recorder the registered codec wrappers report to.
// The wire registry is process-wide and permanent, so the wrappers are
// registered once per node id and look the current recorder up here.
var (
	codecRec   atomic.Pointer[recorder]
	codecOnce  sync.Mutex
	codecNames = map[smr.NodeID]string{}
)

// tracedCodec registers (once) and returns the name of a codec that
// wraps the XPaxos codec for node id; transport.WithCodec selects it.
func tracedCodec(id smr.NodeID) string {
	codecOnce.Lock()
	defer codecOnce.Unlock()
	if name, ok := codecNames[id]; ok {
		return name
	}
	inner, ok := wire.Lookup("xpaxos")
	if !ok {
		panic("perfbench: xpaxos codec not registered")
	}
	name := fmt.Sprintf("perfbench-xpaxos-%d", id)
	wire.Register(wire.Codec{
		Name: name,
		Append: func(w *wire.Buf, m smr.Message) error {
			rec := codecRec.Load()
			before := len(w.Done())
			sp := rec.beginOn(0, "wire.encode", id, false, 0)
			err := inner.Append(w, m)
			rec.end(sp, false, float64(len(w.Done())-before))
			return err
		},
		Decode: func(b []byte) (smr.Message, error) {
			rec := codecRec.Load()
			sp := rec.beginOn(0, "wire.decode", id, false, 0)
			m, err := inner.Decode(b)
			rec.end(sp, false, float64(len(b)))
			return m, err
		},
	})
	codecNames[id] = name
	return name
}

// ---------------------------------------------------------------------------
// wal.WAL
// ---------------------------------------------------------------------------

// durableLog wraps a replica's wal.Log. It always tracks which records
// a completed Sync covered — the crash injector keeps only those — and
// records spans when a recorder is attached.
type durableLog struct {
	log  *wal.Log
	node smr.NodeID
	rec  *recorder // nil when untraced

	appended atomic.Uint64 // highest LSN Append returned
	durable  atomic.Uint64 // highest LSN a completed Sync covered
}

func (d *durableLog) Append(payload []byte) (uint64, error) {
	sp := d.rec.begin("wal.append", d.node, false, 0)
	lsn, err := d.log.Append(payload)
	d.rec.end(sp, false, 1)
	if err == nil {
		d.appended.Store(lsn)
	}
	return lsn, err
}

func (d *durableLog) Sync() error {
	covered := d.appended.Load()
	sp := d.rec.begin("wal.sync", d.node, false, 0)
	err := d.log.Sync()
	d.rec.end(sp, false, 1)
	if err == nil && covered > d.durable.Load() {
		d.durable.Store(covered)
	}
	return err
}

func (d *durableLog) Replay(fn func(lsn uint64, payload []byte) error) error {
	return d.log.Replay(fn)
}

func (d *durableLog) TruncateFront(keep uint64) error { return d.log.TruncateFront(keep) }

// ---------------------------------------------------------------------------
// smr.Application
// ---------------------------------------------------------------------------

// tracedApp times the kv store's Execute (split into gets and puts)
// and Snapshot.
type tracedApp struct {
	inner smr.Application
	node  smr.NodeID
	rec   *recorder
}

func (a *tracedApp) Execute(op []byte) []byte {
	name := "kv.execute.other"
	if len(op) > 0 {
		switch op[0] {
		case kv.OpGet:
			name = "kv.execute.get"
		case kv.OpPut:
			name = "kv.execute.put"
		}
	}
	sp := a.rec.begin(name, a.node, false, 0)
	defer a.rec.end(sp, false, 1)
	return a.inner.Execute(op)
}

func (a *tracedApp) Snapshot() []byte {
	sp := a.rec.begin("kv.snapshot", a.node, false, 0)
	defer a.rec.end(sp, false, 1)
	return a.inner.Snapshot()
}

func (a *tracedApp) Restore(snap []byte) error { return a.inner.Restore(snap) }
