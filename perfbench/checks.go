package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/service"
	"bfc/internal/sim"
	"bfc/internal/units"
)

// The correctness checks compare each result against a computation made apart
// from the program (the generated inputs, a second execution mode) or against
// a property the method must have. None compares against a stored copy of
// earlier output.

// checkFatTreeRun checks one fat-tree run against the flows the benchmark
// generated for it.
func checkFatTreeRun(res *sim.Result, flows []*packet.Flow, hosts int, hostRate units.Rate) error {
	if res.FlowsTotal != len(flows) {
		return fmt.Errorf("FlowsTotal %d, but %d flows were generated", res.FlowsTotal, len(flows))
	}
	if res.FlowsCompleted > res.FlowsTotal {
		return fmt.Errorf("%d flows completed of %d offered", res.FlowsCompleted, res.FlowsTotal)
	}
	var offered float64
	for _, f := range flows {
		offered += float64(f.Size)
	}
	delivered := res.Utilization * float64(hostRate) / 8 * float64(hosts) * res.Elapsed.Seconds()
	if delivered > offered*(1+1e-9) {
		return fmt.Errorf("delivered %.0f payload bytes, more than the %.0f offered", delivered, offered)
	}
	if res.FCT.Count() > 0 {
		if low := res.FCT.OverallPercentile(0); low < 1 {
			return fmt.Errorf("minimum FCT slowdown %.6f is below 1", low)
		}
	}
	if res.Drops != 0 {
		return fmt.Errorf("%d drops with the PFC backstop on", res.Drops)
	}
	if res.Resumes > res.Pauses {
		return fmt.Errorf("%d BFC resumes exceed %d pauses", res.Resumes, res.Pauses)
	}
	return nil
}

// runIdentity is what must repeat exactly whenever one input is simulated
// again, in any execution mode.
type runIdentity struct {
	events uint64
	digest string
}

func checkSameRun(what string, want, got runIdentity) error {
	if want != got {
		return fmt.Errorf("%s: events %d digest %.12s, want events %d digest %.12s",
			what, got.events, got.digest, want.events, want.digest)
	}
	return nil
}

// checkSuiteCounts checks that a pass over the suites executed and served
// from cache exactly the expected numbers of jobs.
func checkSuiteCounts(pass string, statuses []service.SuiteStatus, wantExecuted, wantCached int) error {
	executed, cached := 0, 0
	for _, st := range statuses {
		if st.State != service.StateDone {
			return fmt.Errorf("%s pass: suite %s ended %s (%s)", pass, st.ID, st.State, st.Error)
		}
		executed += st.Executed
		cached += st.Cached
	}
	if executed != wantExecuted || cached != wantCached {
		return fmt.Errorf("%s pass: executed=%d cached=%d, want executed=%d cached=%d",
			pass, executed, cached, wantExecuted, wantCached)
	}
	return nil
}

// checkSameRecords checks that two passes returned byte-identical records,
// suite by suite and job by job.
func checkSameRecords(what string, want, got [][]*harness.Record) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d suites, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("%s: suite %d has %d records, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			a, err := json.Marshal(want[i][j])
			if err != nil {
				return err
			}
			b, err := json.Marshal(got[i][j])
			if err != nil {
				return err
			}
			if !bytes.Equal(a, b) {
				return fmt.Errorf("%s: record %s differs", what, want[i][j].Name)
			}
		}
	}
	return nil
}

// checkNoDrops checks that no job of a suite dropped a packet: every scheme
// runs with the PFC backstop on.
func checkNoDrops(recs []*harness.Record) error {
	for _, rec := range recs {
		if rec.Result.Drops != 0 {
			return fmt.Errorf("%s: %d drops with the PFC backstop on", rec.Name, rec.Result.Drops)
		}
	}
	return nil
}

// endToEndSchemes are the end-to-end congestion-control baselines of Fig 5
// against which BFC's short-flow tail is judged.
var endToEndSchemes = []string{"DCQCN", "DCQCN+Win", "DCQCN+Win+SFQ", "HPCC"}

// minBFCMargin is the least factor by which BFC's p99 slowdown for flows
// under 1 KB must undercut every end-to-end scheme's in a Fig 5 panel. The
// paper reports 2.3-60x.
const minBFCMargin = 2

// checkBFCMargin checks the paper's headline result on one panel: BFC's p99
// slowdown for flows under 1 KB is at least minBFCMargin times below every
// end-to-end scheme's.
func checkBFCMargin(panel string, recs []*harness.Record) error {
	p99 := map[string]float64{}
	for _, rec := range recs {
		if v, ok := rec.Result.FCT.TailSlowdownBySize()["<1KB"]; ok {
			p99[rec.Scheme] = v
		}
	}
	bfc, ok := p99["BFC"]
	if !ok {
		return fmt.Errorf("%s: no BFC p99 for flows under 1KB", panel)
	}
	for _, s := range endToEndSchemes {
		v, ok := p99[s]
		if !ok {
			return fmt.Errorf("%s: no %s p99 for flows under 1KB", panel, s)
		}
		if v < minBFCMargin*bfc {
			return fmt.Errorf("%s: %s p99 slowdown under 1KB is %.2f, only %.2fx BFC's %.2f (want >= %dx)",
				panel, s, v, v/bfc, bfc, minBFCMargin)
		}
	}
	return nil
}
