package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bfc/internal/fleet"
	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/sim"
)

// The suite workloads submit the three Fig 5 panels at the reduced scale
// with all six schemes: 18 jobs in three suites. Job seeds derive from job
// names (harness.DeriveSeed), as they do for every user of the service, so
// the benchmark seed only orders the warm-pass resubmissions.
var fig05Panels = []string{"fig05a", "fig05b", "fig05c"}

const (
	jobsPerPanel = 6
	// suiteWorkers is the local pool's size and the fleet's worker count.
	suiteWorkers = 2
	// localSetupReps and fleetSetupReps are how many times a round brings
	// the service (and the fleet) up; setup_s is the median over all of
	// them, and only the last one serves the round. A local bring-up takes
	// about 50 us and a fleet one about 1.7 ms. Both are mostly file-system
	// calls and goroutine hand-offs, whose cost follows the host's load from
	// one moment to the next, so each round samples them for 50-90 ms.
	localSetupReps = 1000
	fleetSetupReps = 50
	// warmPasses is how many times a round resubmits every suite once it is
	// fully cached.
	warmPasses = 100
	// fleetExecutePath is the worker endpoint that runs a batch.
	fleetExecutePath = "/api/v1/fleet/execute"
)

func fig05Specs() []*service.SuiteSpec {
	specs := make([]*service.SuiteSpec, len(fig05Panels))
	for i, key := range fig05Panels {
		specs[i] = &service.SuiteSpec{Name: "perfbench " + key, Figure: key, Scale: "reduced"}
	}
	return specs
}

// suiteEnv is one brought-up service: an empty store and a service with a
// two-worker pool, or, for the fleet, a coordinator service and two worker
// executors each behind its own loopback HTTP server.
type suiteEnv struct {
	dir     string
	svc     *service.Service
	coord   *fleet.Coordinator
	servers []*httptest.Server
}

func (e *suiteEnv) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	os.RemoveAll(e.dir)
}

// bringUp starts a service on an empty store in dir. With fleetMode it also
// starts the coordinator and two workers, registers the workers the way a
// worker daemon announces itself, and returns once both are registered and
// live. meter, when non-nil, wraps the workers' HTTP handlers.
func bringUp(dir string, fleetMode bool, meter *wireMeter) (_ *suiteEnv, err error) {
	e := &suiteEnv{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	store, err := harness.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	cfg := service.Config{Store: store, Workers: suiteWorkers}
	if fleetMode {
		// One job per batch, so local-fallback batches count jobs.
		e.coord, err = fleet.NewCoordinator(fleet.Config{Store: store, BatchJobs: 1})
		if err != nil {
			return nil, err
		}
		cfg.Fleet = e.coord
	}
	if e.svc, err = service.New(cfg); err != nil {
		return nil, err
	}
	if !fleetMode {
		return e, nil
	}

	coordSrv := httptest.NewServer(service.NewHandler(e.svc, e.coord.Routes()))
	e.servers = append(e.servers, coordSrv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var workerURLs []string
	for i := 0; i < suiteWorkers; i++ {
		wstore, err := harness.NewStore(filepath.Join(dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return nil, err
		}
		ex, err := fleet.NewExecutor(fleet.ExecutorConfig{Store: wstore, Parallel: 1})
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		ex.Routes()(mux)
		var h http.Handler = mux
		if meter != nil {
			h = meter.wrap(i, mux)
		}
		srv := httptest.NewServer(h)
		e.servers = append(e.servers, srv)
		workerURLs = append(workerURLs, srv.URL)
		if err := fleet.NewClient(coordSrv.URL, 10*time.Second).Register(ctx, srv.URL); err != nil {
			return nil, fmt.Errorf("registering worker %d: %w", i, err)
		}
	}
	alive := 0
	for _, w := range e.coord.Status().Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != suiteWorkers {
		return nil, fmt.Errorf("coordinator lists %d live workers, want %d", alive, suiteWorkers)
	}
	for _, u := range workerURLs {
		if _, err := fleet.NewClient(u, 10*time.Second).Ping(ctx); err != nil {
			return nil, fmt.Errorf("worker %s not live: %w", u, err)
		}
	}
	return e, nil
}

// wireMeter wraps the fleet workers' HTTP handlers in a traced round: it
// counts the bytes crossing the wire and times every batch execution.
type wireMeter struct {
	mu    sync.Mutex
	bytes int64
	calls []execCall
}

type execCall struct {
	worker     int
	batch      string
	start, end time.Time
}

func (m *wireMeter) wrap(worker int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		end := time.Now()
		var req struct {
			Batch string `json:"batch"`
		}
		isExec := r.URL.Path == fleetExecutePath
		if isExec && json.Unmarshal(body, &req) != nil {
			req.Batch = ""
		}
		m.mu.Lock()
		m.bytes += int64(len(body)) + cw.n
		if isExec {
			m.calls = append(m.calls, execCall{worker: worker, batch: req.Batch, start: start, end: end})
		}
		m.mu.Unlock()
	})
}

func (m *wireMeter) reset() {
	m.mu.Lock()
	m.bytes, m.calls = 0, nil
	m.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// submitTimes splits one submission into the calls a traced round times.
type submitTimes struct {
	compile, submit time.Duration
}

// submit hands a suite to the service the way a client does. A traced round
// makes the two calls Submit is made of — SuiteSpec.Compile and
// SubmitCompiled — itself, to time each.
func submit(svc *service.Service, spec *service.SuiteSpec, tr *tracer, parent int) (service.SuiteStatus, submitTimes, error) {
	var tm submitTimes
	if tr == nil {
		st, err := svc.Submit(spec)
		return st, tm, err
	}
	sp := tr.begin("service.compile", parent, "")
	t0 := time.Now()
	cs, err := spec.Compile()
	tm.compile = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return service.SuiteStatus{}, tm, err
	}
	sp = tr.begin("service.submit", parent, "")
	t0 = time.Now()
	st, err := svc.SubmitCompiled(cs)
	tm.submit = time.Since(t0)
	tr.end(sp)
	return st, tm, err
}

// coldPass is the first submission of every suite to an empty store.
type coldPass struct {
	ids      []string
	spans    []int // traced: each suite's span
	digests  map[string]int
	recs     [][]*harness.Record
	statuses []service.SuiteStatus
	wall     time.Duration
	cpu      time.Duration
	jobEnds  []jobEnd
}

// jobEnd is one job completion as its suite's subscriber saw it.
type jobEnd struct {
	suite int
	at    time.Time
	exec  *service.ExecEventStats
}

// cold submits every suite, follows each suite's progress stream until it
// ends, and reads back every record. Its wall time runs from the first
// submit until every record of every suite is held.
func (b *bench) cold(env *suiteEnv, specs []*service.SuiteSpec, tr *tracer, parent int) (*coldPass, error) {
	pass := tr.begin("cold", parent, "")
	defer tr.end(pass)
	p := &coldPass{ids: make([]string, len(specs)), spans: make([]int, len(specs)), digests: map[string]int{}}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		cancels []func()
	)
	// On an early return, end the subscriptions still open so their
	// followers exit.
	defer func() {
		for _, c := range cancels {
			c()
		}
		wg.Wait()
	}()
	cpu0, t0 := cpuTime(), time.Now()
	for i, spec := range specs {
		p.spans[i] = tr.begin("suite", pass, "")
		st, _, err := submit(env.svc, spec, tr, p.spans[i])
		if err := b.out.op("submission", err); err != nil {
			return nil, err
		}
		p.ids[i] = st.ID
		p.digests[st.Digest] = i
		tr.setSuite(p.spans[i], st.ID)
		sp := tr.begin("service.subscribe", p.spans[i], st.ID)
		_, ch, cancel, err := env.svc.Subscribe(st.ID)
		if err := b.out.op("subscription", err); err != nil {
			return nil, err
		}
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cancel()
			defer tr.end(sp)
			if ch == nil {
				return // the suite had already ended
			}
			for ev := range ch {
				if ev.Type == "job" && tr != nil {
					mu.Lock()
					p.jobEnds = append(p.jobEnds, jobEnd{suite: i, at: time.Now(), exec: ev.Exec})
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	for i, id := range p.ids {
		sp := tr.begin("service.results", p.spans[i], id)
		recs, err := env.svc.Results(id)
		tr.end(sp)
		for j := 0; j < jobsPerPanel; j++ {
			b.out.op("job", err)
		}
		if err != nil {
			return nil, err
		}
		st, err := env.svc.Status(id)
		if err != nil {
			return nil, err
		}
		p.recs = append(p.recs, recs)
		p.statuses = append(p.statuses, st)
		tr.end(p.spans[i])
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p, nil
}

// checkCold runs the checks every cold pass must pass.
func (b *bench) checkCold(p *coldPass) {
	b.out.check(checkSuiteCounts("cold", p.statuses, len(fig05Panels)*jobsPerPanel, 0))
	for i, recs := range p.recs {
		b.out.check(checkNoDrops(recs))
		b.out.check(checkBFCMargin(fig05Panels[i], recs))
	}
}

// warmStats is what a warm pass measured.
type warmStats struct {
	samples                  []float64 // ms per resubmission
	compile, submit, results []float64 // s per call, traced rounds only
	cacheHitRatio            float64
}

// warm resubmits every suite warmPasses times once all are cached, in an
// order drawn from rng, timing each from submit until its records are held.
func (b *bench) warm(env *suiteEnv, specs []*service.SuiteSpec, cold *coldPass, rng *rand.Rand, tr *tracer, parent int) (*warmStats, error) {
	pass := tr.begin("warm", parent, "")
	defer tr.end(pass)
	ws := &warmStats{}
	before := env.svc.Stats().Cache
	for k := 0; k < warmPasses; k++ {
		statuses := make([]service.SuiteStatus, len(specs))
		recs := make([][]*harness.Record, len(specs))
		for _, i := range rng.Perm(len(specs)) {
			var err error
			statuses[i], recs[i], err = b.resubmit(env.svc, specs[i], ws, tr, pass)
			if err := b.out.op("resubmission", err); err != nil {
				return nil, err
			}
		}
		b.out.check(checkSuiteCounts("warm", statuses, 0, len(fig05Panels)*jobsPerPanel))
		if k == 0 {
			b.out.check(checkSameRecords("warm records against cold", cold.recs, recs))
		}
	}
	after := env.svc.Stats().Cache
	if lookups := (after.Hits - before.Hits) + (after.Loads - before.Loads) + (after.Misses - before.Misses); lookups > 0 {
		ws.cacheHitRatio = float64(after.Hits-before.Hits) / float64(lookups)
	}
	return ws, nil
}

// resubmit submits one suite, waits for it to end and reads its records, as
// a client holding all of its records would, and adds the timings to ws.
func (b *bench) resubmit(svc *service.Service, spec *service.SuiteSpec, ws *warmStats, tr *tracer, parent int) (service.SuiteStatus, []*harness.Record, error) {
	sp := tr.begin("resubmit", parent, "")
	defer tr.end(sp)
	t0 := time.Now()
	st, tm, err := submit(svc, spec, tr, sp)
	if err != nil {
		return st, nil, err
	}
	tr.setSuite(sp, st.ID)
	_, ch, cancel, err := svc.Subscribe(st.ID)
	if err != nil {
		return st, nil, err
	}
	if ch != nil {
		for range ch {
		}
	}
	cancel()
	r0 := time.Now()
	rs := tr.begin("service.results", sp, st.ID)
	recs, err := svc.Results(st.ID)
	tr.end(rs)
	t1 := time.Now()
	if err != nil {
		return st, nil, err
	}
	ws.samples = append(ws.samples, float64(t1.Sub(t0))/1e6)
	if tr != nil {
		ws.compile = append(ws.compile, tm.compile.Seconds())
		ws.submit = append(ws.submit, tm.submit.Seconds())
		ws.results = append(ws.results, t1.Sub(r0).Seconds())
	}
	return st, recs, nil
}

// suiteRound is one round of a suite workload.
type suiteRound struct {
	setups []float64
	cold   *coldPass
	warm   *warmStats
}

func (b *bench) suiteRound(fleetMode bool, specs []*service.SuiteSpec, rng *rand.Rand, tr *tracer) (*suiteRound, error) {
	root := tr.begin("round", 0, "")
	defer tr.end(root)
	var meter *wireMeter
	if tr != nil && fleetMode {
		meter = &wireMeter{}
	}
	r := &suiteRound{}
	reps := localSetupReps
	if fleetMode {
		reps = fleetSetupReps
	}
	var env *suiteEnv
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(b.scratch, "env-")
		if err != nil {
			return nil, err
		}
		sp := tr.begin("setup", root, "")
		t0 := time.Now()
		e, err := bringUp(dir, fleetMode, meter)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		tr.end(sp)
		if env != nil {
			env.close()
		}
		if err := b.out.op("setup", err); err != nil {
			return nil, err
		}
		env = e
	}
	defer env.close()
	if meter != nil {
		meter.reset()
	}

	var m0 memSnap
	if tr != nil {
		m0 = readMem()
	}
	var err error
	if r.cold, err = b.cold(env, specs, tr, root); err != nil {
		return nil, err
	}
	b.checkCold(r.cold)
	if r.warm, err = b.warm(env, specs, r.cold, rng, tr, root); err != nil {
		return nil, err
	}
	if tr != nil {
		m1 := readMem()
		l := map[string]float64{
			"runtime.gc_cycles":       float64(m1.numGC - m0.numGC),
			"runtime.alloc_mb":        m1.allocMBSince(m0),
			"service.compile_s":       median(r.warm.compile),
			"service.submit_s":        median(r.warm.submit),
			"service.results_s":       median(r.warm.results),
			"service.cache_hit_ratio": r.warm.cacheHitRatio,
		}
		b.jobLayers(l, r.cold, fleetMode, env, meter, tr)
		if err := b.probeLayers(l, specs, r.cold, tr, root); err != nil {
			return nil, err
		}
		b.layerSample(l)
	}
	return r, nil
}

// jobLayers fills the per-layer metrics of the jobs a cold pass ran. Jobs of
// the local service carry their execution profile; fleet records cross the
// wire without it, so there the worker's execute handler is timed instead.
func (b *bench) jobLayers(l map[string]float64, p *coldPass, fleetMode bool, env *suiteEnv, meter *wireMeter, tr *tracer) {
	var events, dataPackets float64
	for _, recs := range p.recs {
		for _, rec := range recs {
			events += float64(rec.Result.Events)
			dataPackets += float64(rec.Result.DataPackets)
		}
	}
	l["eventsim.events"] = events
	wall := p.wall.Seconds()
	if !fleetMode {
		var runs []float64
		var busy, wallSum, util float64
		var heapHW, pool float64
		n := 0
		for _, recs := range p.recs {
			for _, rec := range recs {
				ex := rec.Result.Exec
				if ex == nil {
					continue
				}
				n++
				runs = append(runs, float64(ex.WallNS)/1e9)
				wallSum += float64(ex.WallNS) / 1e9
				busy += float64(ex.BusyNS())
				util += ex.Utilization()
				for _, s := range ex.Shards {
					heapHW = max(heapHW, float64(s.HeapHighWater))
					pool += float64(s.PoolAllocated)
				}
			}
		}
		if n > 0 {
			l["sim.run_s"] = median(runs)
			l["eventsim.events_per_busy_s"] = events / (busy / 1e9)
			l["eventsim.heap_high_water"] = heapHW
			l["packet.pool_allocated"] = pool
			l["switchsim.ns_per_data_packet"] = busy / dataPackets
			l["sim.shard_utilization"] = util / float64(n)
			l["service.pool_busy_share"] = wallSum / (wall * suiteWorkers)
		}
		for _, je := range p.jobEnds {
			if je.exec != nil {
				start := je.at.Add(-time.Duration(je.exec.WallMS * 1e6))
				tr.add("sim.run", p.spans[je.suite], p.ids[je.suite], start, je.at)
			}
		}
		return
	}

	meter.mu.Lock()
	calls := append([]execCall(nil), meter.calls...)
	wire := meter.bytes
	meter.mu.Unlock()
	// A worker holds up to two batches at once but runs one job at a time,
	// so its busy time is the union of its execute calls, not their sum.
	perWorker := make([][]execCall, suiteWorkers)
	for _, c := range calls {
		perWorker[c.worker] = append(perWorker[c.worker], c)
		digest, _, _ := strings.Cut(c.batch, "/")
		if i, ok := p.digests[digest]; ok {
			tr.add("fleet.worker_execute", p.spans[i], p.ids[i], c.start, c.end)
		}
	}
	var busy, busiest float64
	for _, cs := range perWorker {
		b := busyUnion(cs).Seconds()
		busy += b
		busiest = max(busiest, b)
	}
	st := env.coord.Status()
	var p50 []float64
	for _, w := range st.Workers {
		if w.Throughput != nil {
			p50 = append(p50, w.Throughput.BatchP50MS/1e3)
		}
	}
	if len(calls) > 0 && busy > 0 {
		l["sim.run_s"] = busy / float64(len(calls))
		l["eventsim.events_per_busy_s"] = events / busy
		l["switchsim.ns_per_data_packet"] = busy * 1e9 / dataPackets
	}
	l["service.pool_busy_share"] = busy / (wall * suiteWorkers)
	l["fleet.batches"] = float64(st.BatchesScattered)
	l["fleet.batch_p50_s"] = mean(p50)
	l["fleet.worker_execute_s"] = busy
	l["fleet.scatter_overhead_s"] = wall - busiest
	l["fleet.wire_mb"] = float64(wire) / mb
	l["fleet.local_fallback_jobs"] = float64(st.BatchesLocal)
}

// probeLayers times, from outside the service, the calls its jobs make into
// the layers below it: one topology build and one flow generation per
// panel, a digest and a store write per record.
func (b *bench) probeLayers(l map[string]float64, specs []*service.SuiteSpec, p *coldPass, tr *tracer, parent int) error {
	probe := tr.begin("probe", parent, "")
	defer tr.end(probe)
	var builds, allocs, gens, digests, puts []float64
	for _, spec := range specs {
		cs, err := spec.Compile()
		if err != nil {
			return err
		}
		job := cs.Jobs[0]
		m0 := readMem()
		sp := tr.begin("topology.build", probe, "")
		t0 := time.Now()
		topo := job.Topology()
		builds = append(builds, time.Since(t0).Seconds())
		tr.end(sp)
		allocs = append(allocs, readMem().allocMBSince(m0))
		sp = tr.begin("workload.generate", probe, "")
		t0 = time.Now()
		job.Flows(topo)
		gens = append(gens, time.Since(t0).Seconds())
		tr.end(sp)
	}
	store, err := harness.NewStore(filepath.Join(b.scratch, "probe-store"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(store.Dir())
	for _, recs := range p.recs {
		for _, rec := range recs {
			sp := tr.begin("sim.digest", probe, "")
			t0 := time.Now()
			_, err := sim.ResultDigest(rec.Result)
			digests = append(digests, time.Since(t0).Seconds())
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("harness.store_put", probe, "")
			t0 = time.Now()
			err = store.Put(rec)
			puts = append(puts, time.Since(t0).Seconds())
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	var sizes []float64
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".jsonl") && e.Name() != "MANIFEST.jsonl" {
			info, err := e.Info()
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(info.Size())/1024)
		}
	}
	l["topology.build_s"] = median(builds)
	l["topology.build_alloc_mb"] = median(allocs)
	l["workload.generate_s"] = median(gens)
	l["sim.digest_s"] = median(digests)
	l["harness.store_put_s"] = median(puts)
	l["harness.record_kb"] = mean(sizes)
	return nil
}

// busyUnion is the time during which at least one of the calls was in
// progress.
func busyUnion(calls []execCall) time.Duration {
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, c := range calls {
		switch {
		case i == 0:
			curStart, curEnd = c.start, c.end
		case !c.start.After(curEnd):
			if c.end.After(curEnd) {
				curEnd = c.end
			}
		default:
			total += curEnd.Sub(curStart)
			curStart, curEnd = c.start, c.end
		}
	}
	if len(calls) > 0 {
		total += curEnd.Sub(curStart)
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// suites runs a suite workload: rounds of bring-up, a cold pass and a warm
// pass, each round on fresh, empty stores.
func (b *bench) suites(fleetMode bool) error {
	specs := fig05Specs()
	rng := rand.New(rand.NewSource(b.seed))
	var walls, cpus, setups, warm, tracedWalls []float64
	var lastCold [][]*harness.Record
	b.loop(func(tr *tracer) error {
		r, err := b.suiteRound(fleetMode, specs, rng, tr)
		if err != nil {
			return err
		}
		lastCold = r.cold.recs
		fmt.Fprintf(os.Stderr, "round: wall %.3fs setup %.6fs cpu %.3fs warm %.4fms traced %v\n",
			r.cold.wall.Seconds(), median(r.setups), r.cold.cpu.Seconds(), median(r.warm.samples), tr != nil)
		if tr != nil {
			tracedWalls = append(tracedWalls, r.cold.wall.Seconds())
			return nil
		}
		walls = append(walls, r.cold.wall.Seconds())
		cpus = append(cpus, r.cold.cpu.Seconds())
		setups = append(setups, r.setups...)
		warm = append(warm, r.warm.samples...)
		return nil
	})
	b.out.report("wall_s", walls)
	b.out.report("setup_s", setups)
	b.out.report("cpu_s", cpus)
	b.out.report("warm_resubmit_ms", warm)
	b.out.report("peak_rss_mb", []float64{peakRSSMB()})
	b.traceOverhead(walls, tracedWalls)
	b.finishLayers()

	if fleetMode && lastCold != nil {
		// The local service is the reference the fleet's records must match
		// byte for byte. It runs after the measurement, so its time and
		// memory stay out of the workload's figures.
		dir, err := os.MkdirTemp(b.scratch, "ref-")
		if err != nil {
			return err
		}
		env, err := bringUp(dir, false, nil)
		if err := b.out.op("setup", err); err != nil {
			b.out.check(fmt.Errorf("local reference service: %v", err))
			return nil
		}
		defer env.close()
		ref, err := b.cold(env, specs, nil, 0)
		if err != nil {
			b.out.check(fmt.Errorf("local reference pass: %v", err))
			return nil
		}
		b.checkCold(ref)
		b.out.check(checkSameRecords("fleet records against the local service", ref.recs, lastCold))
	}
	return nil
}
