// Command perfbench is the repository's benchmark. It runs one workload
// against the real program (XPaxos replicas over loopback TCP, or the
// public xft API in process) or against the deterministic simulator,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads, the metrics and
// the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark input set. run measures it for o.seconds
// and returns its checked result. README.md says why each exists;
// BENCHMARK.json names the ones the benchmark gates on.
type workload struct {
	name string
	run  func(o runOpts) (*result, error)
}

var workloads = []workload{
	{"put1k-sat", runPut1k},
	{"api-w1", runAPI},
	{"rw-crash", runCrash},
	{"rw-failover", runFailover},
	{"campaign-sim", runCampaign},
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	// rec is the span recorder of a traced run; nil when tracing is off.
	rec *recorder
	// scratch is a directory the workload may create files under (WAL
	// directories); it is removed when the run ends.
	scratch string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1: run untraced, then traced, and print the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span dumps and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	phase := func(traced bool) (*result, error) {
		scratch, err := os.MkdirTemp(*out, "run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		o.scratch = scratch
		o.rec = nil
		if traced {
			o.rec = newRecorder()
		}
		res, err := w.run(o)
		if err != nil {
			return nil, err
		}
		if traced {
			path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.tsv", w.name, *seed))
			if err := o.rec.dump(path); err != nil {
				return nil, err
			}
			res.notef("spans: %d kept, %d beyond the in-memory cap, written to %s", len(o.rec.spans), o.rec.dropped, path)
		}
		return res, nil
	}

	plain, err := phase(false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d\n", w.name, *seed, *seconds)
	plain.report(stdout, "")
	final, metrics := plain, pick(plain.e2e, endToEnd)
	if *trace == 1 {
		traced, err := phase(true)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 2
		}
		traced.report(stdout, "traced ")
		for _, d := range endToEnd {
			a, b := plain.e2e[d.name], traced.e2e[d.name]
			fmt.Fprintf(stdout, "tracing overhead %s: untraced %.6g %s, traced %.6g %s, traced-untraced %+.6g (%+.1f%%)\n",
				d.name, a, d.unit, b, d.unit, b-a, 100*(b-a)/a)
		}
		final = traced
		final.attempted += plain.attempted
		final.failed += plain.failed
		final.checks = append(final.checks, plain.checks...)
		metrics = pick(traced.layer, perLayer)
	}
	for _, c := range final.checks {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.correct(), final.attempted, final.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !final.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the named metrics of defs from values. A metric a
// workload did not set is 0: the layer was not exercised or not
// observable on that workload (README.md lists which).
func pick(values map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// checkManifest verifies that BENCHMARK.json, when present, names only
// workloads this program has and exactly the metrics it prints.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var got []string
	for _, d := range m.EndToEnd {
		got = append(got, "end_to_end "+d.Name+" "+d.Unit)
	}
	for _, d := range m.PerLayer {
		got = append(got, "per_layer "+d.Name+" "+d.Unit)
	}
	for _, w := range m.Workloads {
		if !contains(workloadNames(), w.Name) {
			return fmt.Errorf("%s names workload %q, which this program does not have", path, w.Name)
		}
	}
	var want []string
	for _, d := range endToEnd {
		want = append(want, "end_to_end "+d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		want = append(want, "per_layer "+d.name+" "+d.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%s does not match the program's workloads and metrics", path)
	}
	return nil
}
