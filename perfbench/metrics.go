package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics of an untraced run. Every workload
// reports every one of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_mb", "MB"},
}

// deferKinds are the Env.Defer kinds an XPaxos replica issues.
var deferKinds = []string{
	"sign-order", "verify-intake", "verify-order", "verify-prepare", "verify-forward",
	"sign-replysign", "verify-replysign", "mac-reply", "wal-commit",
}

// perLayer are the metrics of a traced run. "per op" divides by the
// client operations committed in the measured window.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"xpaxos.step_us_per_op.primary", "us"},
		{"xpaxos.step_us_per_op.follower", "us"},
		{"xpaxos.loop_busy_frac.primary", "ratio"},
		{"xpaxos.ops_per_batch", "count"},
		{"xpaxos.view_changes", "count"},
		{"xpaxos.viewchange_s", "s"},
		{"xpaxos.catchup_s", "s"},
		{"xpaxos.intake_shed", "count"},
	}
	for _, k := range deferKinds {
		defs = append(defs, metricDef{"smr.defer_us_per_op." + k, "us"})
	}
	for _, k := range deferKinds {
		defs = append(defs, metricDef{"smr.defer_wait_us." + k, "us"})
	}
	return append(defs, []metricDef{
		{"smr.apply_wait_us", "us"},
		{"crypto.signs_per_op", "count"},
		{"crypto.verifies_per_op", "count"},
		{"crypto.macs_per_op", "count"},
		{"crypto.sign_us", "us"},
		{"crypto.verify_us", "us"},
		{"crypto.batch_sigs_per_call", "count"},
		{"crypto.busy_us_per_op", "us"},
		{"wire.msgs_per_op", "count"},
		{"wire.bytes_per_op.primary", "B"},
		{"wire.bytes_per_op.follower", "B"},
		{"wire.bytes_per_op.client", "B"},
		{"wire.encode_ns_per_msg", "ns"},
		{"wire.decode_ns_per_msg", "ns"},
		{"transport.send_drops", "count"},
		{"transport.queue_peak", "count"},
		{"transport.detect_ms", "ms"},
		{"wal.append_us", "us"},
		{"wal.sync_us", "us"},
		{"wal.records_per_sync", "count"},
		{"wal.syncs_per_op", "count"},
		{"wal.replay_ms", "ms"},
		{"wal.discarded_records", "count"},
		{"kv.execute_us.get", "us"},
		{"kv.execute_us.put", "us"},
		{"kv.snapshot_ms", "ms"},
		{"client.retransmits", "count"},
		{"client.health_rotations", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"campaign.commits", "count"},
		{"campaign.acked", "count"},
		{"campaign.view_changes", "count"},
		{"campaign.retransmits", "count"},
		{"campaign.wall_us_per_commit", "us"},
		{"campaign.sim_wall_s", "s"},
		{"gen.lag_p99_ms", "ms"},
		{"gen.samples", "count"},
		{"gen.commit_p99_ms", "ms"},
		{"gen.failover_gap_s", "s"},
	}...)
}()

// result is one measured phase of a workload.
type result struct {
	attempted, failed int
	// checks lists failed output checks.
	checks []string
	e2e    map[string]float64
	layer  map[string]float64
	lines  []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.checks) == 0 }

func (r *result) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) checkf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// report prints the human-readable part of a phase.
func (r *result) report(w io.Writer, prefix string) {
	for _, l := range r.lines {
		fmt.Fprintf(w, "%s%s\n", prefix, l)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s%-18s %14.6g %s\n", prefix, d.name, r.e2e[d.name], d.unit)
	}
	fmt.Fprintf(w, "%sattempted %d failed %d (failed_frac %.6g)\n", prefix, r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// quantile returns the q-quantile of xs (nearest rank); xs is sorted
// in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies collects per-operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// describe reports the median and the highest percentile with at least
// ten samples beyond it, with the sample count.
func (l latencies) describe() string {
	s := append([]float64(nil), l...)
	p50 := quantile(s, 0.50)
	tail, name := 0.0, "max"
	for _, q := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(len(s))*(1-q.q) >= 10 {
			tail, name = quantile(s, q.q), q.name
			break
		}
	}
	if name == "max" && len(s) > 0 {
		tail = s[len(s)-1]
	}
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms, %d samples", p50, name, tail, len(s))
}

// ---------------------------------------------------------------------------
// Process resources
// ---------------------------------------------------------------------------

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the runtime.* metrics
// difference over a window.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// opRec is one committed operation of a measured window.
type opRec struct {
	at  time.Time
	lat time.Duration
}

// A window measures process resources over the measured interval. A
// sampler goroutine reads the Go runtime's memory every memEvery and
// the process CPU time at every slice boundary.
type window struct {
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration
	rt      runtimeSample
	// sliceAt[i] is when slice i began; sliceCPU[i] the CPU time then.
	sliceAt  []time.Time
	sliceCPU []time.Duration
	memPeak  float64 // MiB
	stopCh   chan struct{}
	done     chan struct{}
	stopped  bool
}

const (
	sliceLen = time.Second
	memEvery = 50 * time.Millisecond
)

func startWindow() *window {
	w := &window{start: time.Now(), cpu: cpuTime(), rt: readRuntime(), memPeak: goMemoryMB(),
		stopCh: make(chan struct{}), done: make(chan struct{})}
	w.sliceAt, w.sliceCPU = []time.Time{w.start}, []time.Duration{w.cpu}
	go w.sample()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	tick := time.NewTicker(memEvery)
	defer tick.Stop()
	next := w.start.Add(sliceLen)
	for {
		select {
		case <-w.stopCh:
			return
		case now := <-tick.C:
			w.memPeak = max(w.memPeak, goMemoryMB())
			if !now.Before(next) {
				w.sliceAt = append(w.sliceAt, now)
				w.sliceCPU = append(w.sliceCPU, cpuTime())
				next = next.Add(sliceLen)
			}
		}
	}
}

// stop ends the window; later calls are no-ops.
func (w *window) stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	close(w.stopCh)
	<-w.done
	w.elapsed = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu
	rt := readRuntime()
	w.rt = runtimeSample{rt.gcCPU - w.rt.gcCPU, rt.totalCPU - w.rt.totalCPU, rt.allocBytes - w.rt.allocBytes}
}

// report stops the window and fills the resource metrics of res for
// ops committed over it.
func (w *window) report(res *result, ops int) {
	w.stop()
	res.e2e["cpu_us_per_op"] = float64(w.cpu) / 1e3 / float64(max(ops, 1))
	res.e2e["mem_peak_mb"] = w.memPeak
	res.layer["runtime.gc_cpu_frac"] = div(w.rt.gcCPU, w.rt.totalCPU)
	res.layer["runtime.alloc_bytes_per_op"] = w.rt.allocBytes / float64(max(ops, 1))
}

// sliceMedians sets throughput, commit latency and CPU per op of a
// closed-loop run as medians over the window's one-second slices, so
// that a burst of load from another tenant of the machine moves one
// slice, not the run's figures. recs are the window's operations.
func (w *window) sliceMedians(res *result, recs []opRec) {
	n := len(w.sliceAt) - 1
	if n < 1 {
		return
	}
	lats := make([][]float64, n)
	for _, r := range recs {
		i := sort.Search(len(w.sliceAt), func(i int) bool { return w.sliceAt[i].After(r.at) }) - 1
		if i >= 0 && i < n {
			lats[i] = append(lats[i], float64(r.lat)/1e6)
		}
	}
	var thr, p50, p90, p99, cpu []float64
	for i, l := range lats {
		if len(l) == 0 {
			continue
		}
		thr = append(thr, float64(len(l))/w.sliceAt[i+1].Sub(w.sliceAt[i]).Seconds())
		cpu = append(cpu, float64(w.sliceCPU[i+1]-w.sliceCPU[i])/1e3/float64(len(l)))
		p50 = append(p50, quantile(l, 0.50))
		p90 = append(p90, quantile(l, 0.90))
		p99 = append(p99, quantile(l, 0.99))
	}
	res.e2e["throughput_ops_s"] = median(thr)
	res.e2e["commit_p50_ms"] = median(p50)
	res.e2e["commit_p90_ms"] = median(p90)
	res.layer["gen.commit_p99_ms"] = median(p99)
	res.e2e["cpu_us_per_op"] = median(cpu)
	res.notef("per-second slices: %d; throughput %.0f–%.0f ops/s, p50 %.3f–%.3f ms", len(thr),
		quantile(thr, 0), quantile(thr, 1), quantile(p50, 0), quantile(p50, 1))
}

// goMemoryMB is the memory the Go runtime holds from the OS: all it
// mapped minus what it released.
func goMemoryMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
