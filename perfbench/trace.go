package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one suite share its suite ID.
type span struct {
	id, parent int
	name       string
	suite      string
	start, end time.Duration // offsets from the tracer's origin
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer is the untraced path: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int, suite string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, suite: suite, start: now, end: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed from outside after the fact
// (a job's run, reconstructed from its completion time and run length).
func (t *tracer) add(name string, parent int, suite string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent, name: name, suite: suite,
		start: start.Sub(t.origin), end: end.Sub(t.origin),
	})
	return len(t.spans)
}

// setSuite tags an open span with the suite ID learned after it began (a
// suite's ID is known only once Submit returns).
func (t *tracer) setSuite(id int, suite string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].suite = suite
	t.mu.Unlock()
}

// closed returns the finished spans in start order.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].end > out[j].end
	})
	return out
}

// lanes assigns every span a track such that spans on one track either nest
// or do not overlap, which is how trace viewers draw slices of one thread.
func lanes(spans []span) []int {
	var stacks [][]time.Duration // per lane: end times of the open spans
	out := make([]int, len(spans))
	for i, s := range spans {
		placed := false
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
			if len(st) == 0 || s.end <= st[len(st)-1] {
				stacks[l] = append(st, s.end)
				out[i] = l
				placed = true
				break
			}
		}
		if !placed {
			stacks = append(stacks, []time.Duration{s.end})
			out[i] = len(stacks) - 1
		}
	}
	return out
}

// chromeEvent is one record of the Chrome trace_event format, which
// Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events, one track per lane.
func (t *tracer) writeChrome(w io.Writer, title string) error {
	spans := t.closed()
	lane := lanes(spans)
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": title}}}
	maxLane := -1
	for i, s := range spans {
		if lane[i] > maxLane {
			maxLane = lane[i]
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.suite != "" {
			args["suite"] = s.suite
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "layer", Ph: "X", PID: 1, TID: lane[i],
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	for l := 0; l <= maxLane; l++ {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: l,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", l)}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeChromeFile writes the trace to path, creating its directory.
func (t *tracer) writeChromeFile(path, title string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f, title); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow aggregates the spans of one name: how often the layer was called,
// the time inside it, and its self time — the part of that time its child
// spans do not cover.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) layerTable() []layerRow {
	spans := t.closed()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
			order = append(order, s.name)
		}
		dur := s.end - s.start
		r.count++
		r.total += dur
		r.self += dur - covered(s, children[s.id])
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.6f %12.6f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
}
