// Command perfbench is the end-to-end benchmark of the BFC simulator, its
// service tier and its fleet. One invocation runs one workload for a fixed
// time, checks every output it gets, and prints as its last line one JSON
// object: whether every check held, the operations attempted and failed, and
// the end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload fattree1024-serial --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload suite-fig05 --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --aa 10
//
// README.md lists the workloads, what each layer metric should move, and the
// reference figures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the checkout.
const buildDir = ".bench_build"

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator, the service or the fleet
// sees; every workload reports each of them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"warm_resubmit_ms", "ms", "lower"},
}

// perLayer are the metrics of single layers, read in traced runs. A layer a
// workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"topology.build_s", "s", "lower"},
	{"topology.build_alloc_mb", "MB", "lower"},
	{"workload.generate_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.run_alloc_mb", "MB", "lower"},
	{"sim.digest_s", "s", "lower"},
	{"eventsim.events", "count", "lower"},
	{"eventsim.events_per_busy_s", "1/s", "higher"},
	{"eventsim.heap_high_water", "count", "lower"},
	{"packet.pool_allocated", "count", "lower"},
	{"switchsim.ns_per_data_packet", "ns", "lower"},
	{"sim.barrier_wait_s", "s", "lower"},
	{"sim.barriers", "count", "lower"},
	{"sim.shard_utilization", "ratio", "higher"},
	{"netsim.boundary_pushes", "count", "lower"},
	{"netsim.boundary_spills", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"service.compile_s", "s", "lower"},
	{"service.submit_s", "s", "lower"},
	{"service.results_s", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.pool_busy_share", "ratio", "higher"},
	{"harness.store_put_s", "s", "lower"},
	{"harness.record_kb", "KB", "lower"},
	{"fleet.batches", "count", "lower"},
	{"fleet.batch_p50_s", "s", "lower"},
	{"fleet.worker_execute_s", "s", "lower"},
	{"fleet.scatter_overhead_s", "s", "lower"},
	{"fleet.wire_mb", "MB", "lower"},
	{"fleet.local_fallback_jobs", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

type workloadDef struct {
	name, why string
	run       func(b *bench) error
}

var workloads = []workloadDef{
	{"fattree1024-serial", "deep event heap and a 158 MB fabric build: eventsim, netsim and topology dominate, the BFC engine stays light",
		(*bench).fattree},
	{"suite-fig05", "the three Fig 5 panels through the in-process service: heavy congestion cold, then only cache, compile and read warm",
		func(b *bench) error { return b.suites(false) }},
	{"suite-fig05-fleet", "the same suites through a coordinator and two loopback HTTP workers: fleet scatter, wire codec and manifest dedup",
		func(b *bench) error { return b.suites(true) }},
}

// bench is one invocation's state.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	scratch string  // per-run scratch directory under buildDir
	tr      *tracer // the traced run's spans; nil when untraced
	out     *outcome
}

// outcome collects what a run measured and found.
type outcome struct {
	e2e     map[string]float64
	layer   map[string]float64
	samples map[string]int
	ops     map[string]*opCount
	failed  []string // check failures
	notes   map[string]any
	// layerSamples holds each traced round's per-layer values until
	// finishLayers takes their medians.
	layerSamples map[string][]float64
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func newOutcome() *outcome {
	return &outcome{
		e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string]int{}, ops: map[string]*opCount{}, notes: map[string]any{},
		layerSamples: map[string][]float64{},
	}
}

// op counts one attempted operation of a kind, failed when err is non-nil.
func (o *outcome) op(kind string, err error) error {
	c := o.ops[kind]
	if c == nil {
		c = &opCount{}
		o.ops[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
	}
	return err
}

// check records a failed correctness check (nil err: the check held). Only
// the first failure of each message is kept.
func (o *outcome) check(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	for _, m := range o.failed {
		if m == msg {
			return
		}
	}
	o.failed = append(o.failed, msg)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
}

// report records an end-to-end metric as the median of its samples, and
// their count.
func (o *outcome) report(name string, xs []float64) {
	o.e2e[name] = median(xs)
	o.samples[name] = len(xs)
}

// layerSample adds one traced round's per-layer values.
func (b *bench) layerSample(l map[string]float64) {
	for k, v := range l {
		b.out.layerSamples[k] = append(b.out.layerSamples[k], v)
	}
}

// finishLayers reports the median of every per-layer metric over the traced
// rounds. A traced run in which no traced round finished has nothing to
// report, and is not correct.
func (b *bench) finishLayers() {
	if b.traced && len(b.out.layerSamples) == 0 {
		b.out.check(fmt.Errorf("no traced round finished"))
	}
	for k, xs := range b.out.layerSamples {
		b.out.layer[k] = median(xs)
	}
}

// loop runs round until the run's time is spent, always finishing the round
// in progress, so every run attempts whole rounds of the same operations. A
// traced run alternates untraced and traced rounds, starting untraced, and
// runs at least one of each: the untraced ones give the tracing overhead.
// Every round starts on a collected heap, as a fresh process would, so no
// round pays for collecting its predecessor's garbage.
func (b *bench) loop(round func(tr *tracer) error) {
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if b.traced && i%2 == 1 {
			tr = b.tr
		}
		runtime.GC()
		if err := round(tr); err != nil {
			b.out.check(fmt.Errorf("round %d: %v", i, err))
		}
		if time.Since(start) >= b.seconds && (!b.traced || i >= 1) {
			return
		}
	}
}

// traceOverhead reports how much slower traced rounds ran than untraced ones.
func (b *bench) traceOverhead(untraced, traced []float64) {
	if u := median(untraced); u > 0 && len(traced) > 0 {
		b.out.layer["trace.overhead_share"] = median(traced)/u - 1
		b.out.notes["trace_overhead"] = map[string]any{
			"untraced_wall_s": median(untraced), "traced_wall_s": median(traced),
			"untraced_rounds": len(untraced), "traced_rounds": len(traced),
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see README.md); with --aa, a comma-separated subset (default all)")
		seed     = flag.Int64("seed", 1, "input seed")
		secs     = flag.Int("seconds", 30, "how long one run measures")
		traceArg = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing a Chrome trace")
		aa       = flag.Int("aa", 0, "A/A mode: run each workload in two sets of this many runs with distinct seeds and compare the sets")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *workload, *secs))
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			def = &workloads[i]
		}
	}
	if def == nil || *secs < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}

	scratch, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run it through perfbench/run.sh from the checkout root)\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		seed: *seed, seconds: time.Duration(*secs) * time.Second,
		traced: *traceArg == 1, scratch: scratch, out: newOutcome(),
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := def.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}

	defs, values := endToEnd, b.out.e2e
	if b.traced {
		defs, values = perLayer, b.out.layer
		tracePath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.trace.json", def.name, *seed))
		if err := b.tr.writeChromeFile(tracePath, "perfbench "+def.name); err != nil {
			b.out.check(fmt.Errorf("writing trace: %v", err))
		}
		b.out.notes["trace_file"] = tracePath
		printLayerTable(os.Stdout, b.tr.layerTable())
	}
	res := b.out.verdict(defs, values, !b.traced)
	if b.traced {
		printMetricTable(os.Stdout, defs, values)
	}
	ctx := machineContext()
	ctx["workload"], ctx["seed"], ctx["seconds"], ctx["trace"] = def.name, *seed, *secs, *traceArg
	ctx["operations"], ctx["samples"], ctx["checks_failed"] = b.out.ops, b.out.samples, b.out.failed
	for k, v := range b.out.notes {
		ctx[k] = v
	}
	emit(os.Stdout, map[string]any{"context": ctx})
	emit(os.Stdout, res)
}

// verdict builds the run's result line from the metrics defs. The run is
// correct only when every check held, it attempted at least one operation
// and none failed, and every metric is finite; with sampled, every metric
// must also rest on at least one sample, so a run whose every round failed
// can never pass for a fast one.
func (o *outcome) verdict(defs []metricDef, values map[string]float64, sampled bool) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, c := range o.ops {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	if res.Attempted == 0 || res.Failed > 0 {
		o.check(fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(fmt.Errorf("metric %s is %v", d.name, v))
			v = 0
		}
		if sampled && o.samples[d.name] == 0 {
			o.check(fmt.Errorf("metric %s has no samples", d.name))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(o.failed) == 0
	return res
}

func emit(w io.Writer, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value emitted here is plain data
	}
	fmt.Fprintln(w, string(blob))
}

func printMetricTable(w io.Writer, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "%-30s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %16.6g  %s\n", d.name, values[d.name], d.unit)
	}
}

// machineContext records what a number must be read against: the cores the
// run had, the CPU, the toolchain and the code. The code is the commit the
// build was stamped with; a checkout exported without its version-control
// metadata has no stamp, and a hash of its sources identifies it instead.
func machineContext() map[string]any {
	ctx := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				ctx["commit"] = s.Value
			case "vcs.modified":
				ctx["commit_modified"] = s.Value == "true"
			}
		}
	}
	if ctx["commit"] == "unknown" {
		ctx["source_sha256"] = sourceDigest(".")
	}
	return ctx
}

// cpuModel reads the CPU's model name; "unknown" where /proc is not there.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}
