package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/service"
	"bfc/internal/sim"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/workload"
)

// smallFatTreeRun runs BFC on a 16-host fat-tree with the fat-tree
// workloads' traffic shape, giving the checks a real result to accept
// before each test corrupts a copy of it.
func smallFatTreeRun(t *testing.T) (*sim.Result, []*packet.Flow, *topology.Topology) {
	t.Helper()
	cfg := topology.FatTreeForHosts(16, ftHostRate, ftDelay)
	topo := topology.NewFatTree(cfg)
	trace, err := workload.Generate(workload.Config{
		Hosts: topo.Hosts(), CDF: workload.Google(), Load: ftLoad,
		HostRate: ftHostRate, Duration: ftArrivals, Seed: ftDrawSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	placeFlows(cfg, topo.Hosts(), trace.Flows, 7)
	opts := sim.DefaultOptions(sim.SchemeBFC, topo)
	opts.Duration, opts.Drain = ftArrivals, ftDrain
	res, err := sim.Run(opts, trace.Flows)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace.Flows, topo
}

// fctCollector builds a collector holding the given slowdowns in the
// under-1KB bucket.
func fctCollector(t *testing.T, under1KB ...float64) *stats.FCTCollector {
	t.Helper()
	per := make([][]float64, len(stats.DefaultSizeBuckets()))
	for i := range per {
		per[i] = []float64{}
	}
	per[0] = under1KB
	blob, err := json.Marshal(map[string]any{"per_size": per, "all": under1KB})
	if err != nil {
		t.Fatal(err)
	}
	c := &stats.FCTCollector{}
	if err := json.Unmarshal(blob, c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFatTreeChecksRejectCorruptedResults(t *testing.T) {
	res, flows, topo := smallFatTreeRun(t)
	hosts := len(topo.Hosts())
	if err := checkFatTreeRun(res, flows, hosts, ftHostRate); err != nil {
		t.Fatalf("a correct run fails its checks: %v", err)
	}
	corruptions := map[string]func(r *sim.Result){
		"flow count":          func(r *sim.Result) { r.FlowsTotal++ },
		"completed > offered": func(r *sim.Result) { r.FlowsCompleted = r.FlowsTotal + 1 },
		"delivered > offered": func(r *sim.Result) { r.Utilization *= 1e6 },
		"slowdown below 1":    func(r *sim.Result) { r.FCT = fctCollector(t, 0.5, 2) },
		"drops":               func(r *sim.Result) { r.Drops = 1 },
		"resumes > pauses":    func(r *sim.Result) { r.Resumes = r.Pauses + 1 },
	}
	for name, corrupt := range corruptions {
		bad := *res
		corrupt(&bad)
		if err := checkFatTreeRun(&bad, flows, hosts, ftHostRate); err == nil {
			t.Errorf("%s: corrupted result passes", name)
		}
	}
	if err := checkFatTreeRun(res, flows[1:], hosts, ftHostRate); err == nil {
		t.Error("a result for more flows than generated passes")
	}
}

func TestSameRunRejectsDifferences(t *testing.T) {
	want := runIdentity{events: 100, digest: "abc"}
	if err := checkSameRun("x", want, want); err != nil {
		t.Fatal(err)
	}
	for _, got := range []runIdentity{{events: 101, digest: "abc"}, {events: 100, digest: "abd"}} {
		if checkSameRun("x", want, got) == nil {
			t.Errorf("%+v passes against %+v", got, want)
		}
	}
}

func TestSuiteCountsRejectWrongCounts(t *testing.T) {
	done := func(executed, cached int) service.SuiteStatus {
		return service.SuiteStatus{ID: "s1", State: service.StateDone, Executed: executed, Cached: cached}
	}
	ok := []service.SuiteStatus{done(6, 0), done(6, 0), done(6, 0)}
	if err := checkSuiteCounts("cold", ok, 18, 0); err != nil {
		t.Fatal(err)
	}
	for name, sts := range map[string][]service.SuiteStatus{
		"one job cached":   {done(5, 1), done(6, 0), done(6, 0)},
		"one job missing":  {done(5, 0), done(6, 0), done(6, 0)},
		"failed suite":     {done(6, 0), done(6, 0), {ID: "s3", State: service.StateFailed, Executed: 6}},
		"warm counts cold": {done(0, 6), done(0, 6), done(0, 6)},
	} {
		if checkSuiteCounts("cold", sts, 18, 0) == nil {
			t.Errorf("%s passes", name)
		}
	}
}

func record(name, scheme string, res *sim.Result) *harness.Record {
	return &harness.Record{Name: name, Hash: name, Scheme: scheme, Result: res}
}

func TestSameRecordsRejectDifferences(t *testing.T) {
	a := [][]*harness.Record{{record("j1", "BFC", &sim.Result{Events: 5}), record("j2", "HPCC", &sim.Result{Events: 7})}}
	same := [][]*harness.Record{{record("j1", "BFC", &sim.Result{Events: 5}), record("j2", "HPCC", &sim.Result{Events: 7})}}
	if err := checkSameRecords("x", a, same); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][][]*harness.Record{
		"changed field":  {{record("j1", "BFC", &sim.Result{Events: 5}), record("j2", "HPCC", &sim.Result{Events: 8})}},
		"missing record": {{record("j1", "BFC", &sim.Result{Events: 5})}},
		"missing suite":  {},
	} {
		if checkSameRecords("x", a, b) == nil {
			t.Errorf("%s passes", name)
		}
	}
}

func TestNoDropsRejectsDrops(t *testing.T) {
	recs := []*harness.Record{record("j1", "BFC", &sim.Result{}), record("j2", "DCQCN", &sim.Result{})}
	if err := checkNoDrops(recs); err != nil {
		t.Fatal(err)
	}
	recs[1].Result.Drops = 3
	if checkNoDrops(recs) == nil {
		t.Error("a dropping job passes")
	}
}

func TestBFCMarginRejectsNarrowMargins(t *testing.T) {
	panel := func(bfc, hpcc float64) []*harness.Record {
		recs := []*harness.Record{record("bfc", "BFC", &sim.Result{FCT: fctCollector(t, 1, bfc)})}
		for _, s := range endToEndSchemes {
			v := 10.0
			if s == "HPCC" {
				v = hpcc
			}
			recs = append(recs, record(strings.ToLower(s), s, &sim.Result{FCT: fctCollector(t, 1, v)}))
		}
		return recs
	}
	if err := checkBFCMargin("fig05a", panel(1.2, 4)); err != nil {
		t.Fatal(err)
	}
	if checkBFCMargin("fig05a", panel(1.2, 2.3)) == nil {
		t.Error("HPCC within 2x of BFC passes")
	}
	if checkBFCMargin("fig05a", panel(1.2, 4)[1:]) == nil {
		t.Error("a panel without BFC passes")
	}
	if checkBFCMargin("fig05a", panel(1.2, 4)[:4]) == nil {
		t.Error("a panel without HPCC passes")
	}
}

// TestPlaceFlowsIsAFabricSymmetry checks that the seed-chosen placement maps
// hosts one to one and keeps every pair of hosts exactly as near as before:
// same edge switch, same pod, or across pods.
func TestPlaceFlowsIsAFabricSymmetry(t *testing.T) {
	cfg := topology.FatTreeForHosts(128, ftHostRate, ftDelay)
	topo := topology.NewFatTree(cfg)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i, src := range hosts {
		for _, j := range []int{1, 5, 40, 97} {
			flows = append(flows, &packet.Flow{Src: src, Dst: hosts[(i+j)%len(hosts)]})
		}
	}
	before := make([]int, len(flows))
	for i, f := range flows {
		before[i] = topo.HopCount(f.Src, f.Dst)
	}
	placeFlows(cfg, hosts, flows, 3)
	moved := 0
	image := map[packet.NodeID]packet.NodeID{}
	for i, f := range flows {
		if got := topo.HopCount(f.Src, f.Dst); got != before[i] {
			t.Fatalf("flow %d: %d hops after placement, %d before", i, got, before[i])
		}
		if f.Src != hosts[i/4] {
			moved++
		}
		if prev, ok := image[hosts[i/4]]; ok && prev != f.Src {
			t.Fatalf("host %d placed on both %d and %d", hosts[i/4], prev, f.Src)
		}
		image[hosts[i/4]] = f.Src
	}
	seen := map[packet.NodeID]bool{}
	for _, to := range image {
		if seen[to] {
			t.Fatalf("two hosts placed on %d", to)
		}
		seen[to] = true
	}
	if moved == 0 {
		t.Fatal("placement moved no host")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	s := func(start, end time.Duration) span { return span{start: start, end: end} }
	// Overlapping children count once; the part of a child outside its
	// parent does not count.
	kids := []span{s(10, 30), s(20, 40), s(90, 120)}
	if got := covered(s(0, 100), kids); got != 40 {
		t.Fatalf("covered = %v, want 40ns", got)
	}
}

// TestVerdictRejectsFailedRuns shows that a run whose rounds all failed is
// not correct, although no check ran and every metric reads 0, the best
// value a lower-is-better metric can take.
func TestVerdictRejectsFailedRuns(t *testing.T) {
	good := newOutcome()
	good.op("simulation", nil)
	for _, d := range endToEnd {
		good.report(d.name, []float64{1})
	}
	if res := good.verdict(endToEnd, good.e2e, true); !res.Correct {
		t.Fatalf("a run with samples and no failures was rejected: %v", good.failed)
	}

	allFailed := newOutcome()
	for i := 0; i < 3; i++ {
		allFailed.op("simulation", fmt.Errorf("corrupted"))
	}
	res := allFailed.verdict(endToEnd, allFailed.e2e, true)
	if res.Correct || res.Failed != 3 || res.Attempted != 3 {
		t.Fatalf("all-failing run gave %+v", res)
	}

	unsampled := newOutcome()
	unsampled.op("simulation", nil)
	if res := unsampled.verdict(endToEnd, unsampled.e2e, true); res.Correct {
		t.Fatal("a run whose metrics rest on no samples was accepted")
	}
	if res := newOutcome().verdict(endToEnd, map[string]float64{}, false); res.Correct {
		t.Fatal("a run that attempted nothing was accepted")
	}
}

// TestJudgeAARejectsDisagreement shows the A/A judge failing a metric that
// measured nothing, spread beyond its bound, or moved beyond it either way,
// and judging the shift of a metric whose spread it does not judge.
func TestJudgeAARejectsDisagreement(t *testing.T) {
	cases := []struct {
		name        string
		med         [2]float64
		spread      [2]float64
		shift       float64
		judgeSpread bool
		pass        bool
	}{
		{"steady", [2]float64{1, 1.05}, [2]float64{0.05, 0.06}, 0.05, true, true},
		{"zero medians", [2]float64{0, 0}, [2]float64{math.NaN(), math.NaN()}, math.NaN(), true, false},
		{"spread", [2]float64{1, 1}, [2]float64{0.05, 0.3}, 0, true, false},
		{"slower", [2]float64{1, 1.4}, [2]float64{0.05, 0.05}, 0.4, true, false},
		{"faster", [2]float64{1, 0.6}, [2]float64{0.05, 0.05}, -0.4, true, false},
		{"spread not judged", [2]float64{1, 1}, [2]float64{0.05, 0.3}, 0, false, true},
		{"spread not judged, shifted", [2]float64{1, 1.4}, [2]float64{0.05, 0.3}, 0.4, false, false},
	}
	for _, c := range cases {
		if _, pass := judgeAA(0.25, c.med, c.spread, c.shift, c.judgeSpread); pass != c.pass {
			t.Errorf("%s: pass = %v, want %v", c.name, pass, c.pass)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON checks that the metrics and workloads the
// benchmark prints are the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		var a, b []string
		for _, d := range defs {
			a = append(a, fmt.Sprintf("%s/%s/%s", d.name, d.unit, d.better))
		}
		for _, g := range got {
			b = append(b, fmt.Sprintf("%s/%s/%s", g.Name, g.Unit, g.Better))
		}
		if strings.Join(a, " ") != strings.Join(b, " ") {
			t.Errorf("%s: benchmark prints %v, BENCHMARK.json declares %v", what, a, b)
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
}
