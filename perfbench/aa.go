package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// spreadNotJudged names, per workload, the end-to-end metric whose spread
// the A/A mode prints but does not judge; its shift is judged like any
// other metric's. A local bring-up of the service is about 50 us of
// file-system calls and goroutine hand-offs, and on a shared 2-vCPU machine
// its median moved by about 30% from one process to the next, with 20 or
// with 1,000 bring-ups a round; README.md gives the figures.
var spreadNotJudged = map[string]string{"suite-fig05": "setup_s"}

// benchSpec is the part of BENCHMARK.json the A/A mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(blob, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runChild runs one benchmark invocation in its own process, so that every
// run has its own peak resident set, and decodes its last output line.
func runChild(exe, workload string, seed int64, secs int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %v\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s seed %d: decoding result: %w", workload, seed, err)
	}
	return res, nil
}

// runAA is the A/A mode: it runs each workload in two sets of n runs of the
// same code, every run with its own seed (set A seeds 1..n, set B n+1..2n),
// and judges the sets against BENCHMARK.json's bounds. For each end-to-end
// metric it prints each set's median and quartiles and their spread,
// (Q3-Q1)/median, and the shift of set B's median against set A's. A metric
// passes when both sets have a positive median, both spreads are within its
// bound (unless spreadNotJudged exempts them), and the shift, either way, is
// within it too; a workload passes when every metric does, every run was
// correct, and both sets failed the same share of operations. "tight" marks
// spreads below a third of the bound. It returns the process exit code: 0
// when every workload passes.
func runAA(n int, only string, secs int) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var names []string
	if only == "" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = strings.Split(only, ",")
	}
	fmt.Printf("A/A: %d+%d runs of %d s per workload; machine %v\n", n, n, secs, machineContext())
	pass := true
	for _, w := range names {
		var sets [2][]*result
		for s := 0; s < 2; s++ {
			for i := 0; i < n; i++ {
				seed := int64(s*n + i + 1)
				res, err := runChild(exe, w, seed, secs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
					return 1
				}
				sets[s] = append(sets[s], res)
				fmt.Fprintf(os.Stderr, "aa %s set %c seed %d: correct=%v attempted=%d failed=%d\n",
					w, 'A'+s, seed, res.Correct, res.Attempted, res.Failed)
			}
		}
		if !reportAA(w, spec, sets) {
			pass = false
		}
		if err := saveAA(w, sets); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if pass {
		fmt.Println("A/A: PASS")
		return 0
	}
	fmt.Println("A/A: FAIL")
	return 1
}

// reportAA prints one workload's comparison and reports whether it passed.
func reportAA(workload string, spec *benchSpec, sets [2][]*result) bool {
	ok := true
	var shares [2]string
	for s, runs := range sets {
		attempted, failed := 0, 0
		for _, r := range runs {
			if !r.Correct {
				ok = false
			}
			attempted += r.Attempted
			failed += r.Failed
		}
		shares[s] = fmt.Sprintf("%d/%d", failed, attempted)
	}
	fmt.Printf("\n%s: failed operations A %s, B %s\n", workload, shares[0], shares[1])
	if !sameShare(sets) {
		fmt.Println("  failed shares differ")
		ok = false
	}
	fmt.Printf("  %-18s %-38s %-38s %8s %6s  %s\n", "metric", "set A median [Q1 Q3] spread", "set B median [Q1 Q3] spread", "shift", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		var med [2]float64
		var spread [2]float64
		var cols [2]string
		for s, runs := range sets {
			xs := make([]float64, 0, len(runs))
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			med[s], spread[s] = q2, (q3-q1)/q2
			cols[s] = fmt.Sprintf("%.4g [%.4g %.4g] %5.1f%%", q2, q1, q3, 100*spread[s])
		}
		shift := (med[1] - med[0]) / med[0]
		if m.Better == "higher" {
			shift = -shift
		}
		verdict, pass := judgeAA(m.Bound, med, spread, shift, spreadNotJudged[workload] != m.Name)
		ok = ok && pass
		fmt.Printf("  %-18s %-38s %-38s %+7.1f%% %5.0f%%  %s\n", m.Name, cols[0], cols[1], 100*shift, 100*m.Bound, verdict)
	}
	return ok
}

// judgeAA judges one metric of an A/A comparison: both medians must be
// positive (a metric that reads 0 or NaN measured nothing), the shift's size
// within the bound, and, when judgeSpread, both spreads too.
func judgeAA(bound float64, med, spread [2]float64, shift float64, judgeSpread bool) (string, bool) {
	for s := range med {
		if !(med[s] > 0) || math.IsNaN(spread[s]) {
			return "NO VALUE", false
		}
	}
	wide := spread[0] > bound || spread[1] > bound
	switch {
	case wide && judgeSpread:
		return "SPREAD > BOUND", false
	case math.Abs(shift) > bound:
		return "SHIFT > BOUND", false
	case wide:
		return "ok, spread not judged", true
	case spread[0] < bound/3 && spread[1] < bound/3:
		return "ok, tight", true
	}
	return "ok", true
}

// sameShare reports whether both sets failed exactly the same share of their
// attempted operations.
func sameShare(sets [2][]*result) bool {
	var a, f [2]int
	for s, runs := range sets {
		for _, r := range runs {
			a[s] += r.Attempted
			f[s] += r.Failed
		}
	}
	return f[0]*a[1] == f[1]*a[0]
}

// saveAA keeps every run's result of both sets for later analysis.
func saveAA(workload string, sets [2][]*result) error {
	path := filepath.Join(buildDir, "aa", workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{"A": sets[0], "B": sets[1]}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
