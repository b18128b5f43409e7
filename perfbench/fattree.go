package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// The fat-tree workloads run the ROADMAP reference run: BFC on the
// 1024-host three-tier fat-tree, Google traffic at 50% load arriving for
// 20 us, then a 100 us drain.
const (
	ftHosts    = 1024
	ftHostRate = 100 * units.Gbps
	ftDelay    = units.Microsecond
	ftLoad     = 0.5
	ftArrivals = 20 * units.Microsecond
	ftDrain    = 100 * units.Microsecond
	// ftDrawSeed fixes the workload draw. With lognormal (sigma 2)
	// inter-arrivals a 20 us draw is so bursty that its event count moves by
	// a fifth from one draw seed to the next, which would swamp any bound.
	// The benchmark seed therefore varies where the draw lands instead; see
	// placeFlows.
	ftDrawSeed = 1
)

// placeFlows relabels the hosts of a fat-tree trace by a symmetry of the
// fabric chosen by seed: pods are permuted, edge switches within each pod,
// and hosts within each edge switch. Each seed changes which hosts, racks,
// pods (and so shards and ECMP hashes) carry every flow while keeping the
// flows' sizes, arrival times and rack/pod locality, so the volume of work
// stays that of the reference draw. Hosts are numbered pod-major, then edge,
// then host, as topology.NewFatTree adds them.
func placeFlows(cfg topology.FatTreeConfig, hosts []packet.NodeID, flows []*packet.Flow, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	index := map[packet.NodeID]int{}
	for i, h := range hosts {
		index[h] = i
	}
	pods := rng.Perm(cfg.Pods)
	to := make([]packet.NodeID, len(hosts))
	for p := 0; p < cfg.Pods; p++ {
		edges := rng.Perm(cfg.EdgePerPod)
		for e := 0; e < cfg.EdgePerPod; e++ {
			slots := rng.Perm(cfg.HostsPerEdge)
			for h := 0; h < cfg.HostsPerEdge; h++ {
				from := (p*cfg.EdgePerPod+e)*cfg.HostsPerEdge + h
				to[from] = hosts[(pods[p]*cfg.EdgePerPod+edges[e])*cfg.HostsPerEdge+slots[h]]
			}
		}
	}
	for _, f := range flows {
		f.Src, f.Dst = to[index[f.Src]], to[index[f.Dst]]
	}
}

// ftRound is one fat-tree round: set-up, run and digest.
type ftRound struct {
	setup, simRun, digest time.Duration
	cpu                   time.Duration
	id                    runIdentity
	// layer holds the round's per-layer values when it was traced.
	layer map[string]float64
}

// fattreeRound builds the fabric, generates and places the flows, runs them
// on shards (0 = serial) and digests the result. tr, when non-nil, records
// spans and turns the execution profiler on.
func (b *bench) fattreeRound(shards int, tr *tracer) (*ftRound, error) {
	root := tr.begin("round", 0, "")
	defer tr.end(root)
	var m0, mTopo, mRun memSnap
	if tr != nil {
		m0 = readMem()
	}
	cpu0, t0 := cpuTime(), time.Now()

	setup := tr.begin("setup", root, "")
	cfg := topology.FatTreeForHosts(ftHosts, ftHostRate, ftDelay)
	sp := tr.begin("topology.build", setup, "")
	topo := topology.NewFatTree(cfg)
	tr.end(sp)
	tTopo := time.Now()
	if tr != nil {
		mTopo = readMem()
	}
	sp = tr.begin("workload.generate", setup, "")
	trace, err := workload.Generate(workload.Config{
		Hosts: topo.Hosts(), CDF: workload.Google(), Load: ftLoad,
		HostRate: ftHostRate, Duration: ftArrivals, Seed: ftDrawSeed,
	})
	tr.end(sp)
	tGen := time.Now()
	if err := b.out.op("generate", err); err != nil {
		return nil, err
	}
	placeFlows(cfg, topo.Hosts(), trace.Flows, b.seed)
	opts := sim.DefaultOptions(sim.SchemeBFC, topo)
	opts.Duration, opts.Drain, opts.Shards = ftArrivals, ftDrain, shards
	opts.ExecStats = tr != nil
	tr.end(setup)
	t1 := time.Now()

	if tr != nil {
		mRun = readMem()
	}
	sp = tr.begin("sim.run", root, "")
	res, err := sim.Run(opts, trace.Flows)
	tr.end(sp)
	t2 := time.Now()
	if err := b.out.op("simulation", err); err != nil {
		return nil, err
	}
	var mAfterRun memSnap
	if tr != nil {
		mAfterRun = readMem()
	}
	sp = tr.begin("sim.digest", root, "")
	digest, err := sim.ResultDigest(res)
	tr.end(sp)
	t3 := time.Now()
	cpu1 := cpuTime()
	if err := b.out.op("digest", err); err != nil {
		return nil, err
	}
	b.out.check(checkFatTreeRun(res, trace.Flows, len(topo.Hosts()), ftHostRate))

	r := &ftRound{
		setup: t1.Sub(t0), simRun: t2.Sub(t1), digest: t3.Sub(t2), cpu: cpu1 - cpu0,
		id: runIdentity{events: res.Events, digest: digest},
	}
	if tr != nil && res.Exec != nil {
		m1 := readMem()
		ex := res.Exec
		busy := float64(ex.BusyNS())
		heapHW, pool := 0, uint64(0)
		for _, s := range ex.Shards {
			heapHW = max(heapHW, s.HeapHighWater)
			pool += s.PoolAllocated
		}
		r.layer = map[string]float64{
			"topology.build_s":           tTopo.Sub(t0).Seconds(),
			"topology.build_alloc_mb":    mTopo.allocMBSince(m0),
			"workload.generate_s":        tGen.Sub(tTopo).Seconds(),
			"sim.run_s":                  r.simRun.Seconds(),
			"sim.run_alloc_mb":           mAfterRun.allocMBSince(mRun),
			"sim.digest_s":               r.digest.Seconds(),
			"eventsim.events":            float64(res.Events),
			"eventsim.events_per_busy_s": float64(res.Events) / (busy / 1e9),
			"eventsim.heap_high_water":   float64(heapHW),
			"packet.pool_allocated":      float64(pool),
			"sim.barrier_wait_s":         float64(ex.BarrierWaitNS()) / 1e9,
			"sim.barriers":               float64(ex.Barriers),
			"sim.shard_utilization":      ex.Utilization(),
			"netsim.boundary_pushes":     float64(ex.BoundaryPushes()),
			"netsim.boundary_spills":     float64(ex.Spills()),
			"runtime.gc_cycles":          float64(m1.numGC - m0.numGC),
			"runtime.alloc_mb":           m1.allocMBSince(m0),
		}
		if res.DataPackets > 0 {
			r.layer["switchsim.ns_per_data_packet"] = busy / float64(res.DataPackets)
		}
	}
	return r, nil
}

// parityShards is the shard count of the sharded run every fat-tree run
// ends with.
const parityShards = 2

// shardedLayers are the per-layer metrics of the sharded engine, which the
// serial rounds bypass; a traced run reports them from its sharded run.
var shardedLayers = []string{
	"sim.barrier_wait_s", "sim.barriers", "sim.shard_utilization",
	"netsim.boundary_pushes", "netsim.boundary_spills",
}

// fattree runs the fat-tree workload: serial rounds for the measurement,
// then one run of the same inputs on two shards, which must reproduce the
// serial events and digest exactly. In a traced run that sharded run also
// gives the sharded engine's per-layer metrics.
func (b *bench) fattree() error {
	var walls, setups, cpus, warm, tracedWalls []float64
	var first *runIdentity
	b.loop(func(tr *tracer) error {
		r, err := b.fattreeRound(0, tr)
		if err != nil {
			return err
		}
		if first == nil {
			first = &r.id
		}
		b.out.check(checkSameRun("repeat with one seed", *first, r.id))
		wall := (r.setup + r.simRun + r.digest).Seconds()
		fmt.Fprintf(os.Stderr, "round: wall %.3fs setup %.3fs cpu %.3fs traced %v\n", wall, r.setup.Seconds(), r.cpu.Seconds(), tr != nil)
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
			b.layerSample(r.layer)
			return nil
		}
		walls = append(walls, wall)
		setups = append(setups, r.setup.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		warm = append(warm, float64(r.simRun+r.digest)/1e6)
		return nil
	})
	b.out.report("wall_s", walls)
	b.out.report("setup_s", setups)
	b.out.report("cpu_s", cpus)
	b.out.report("warm_resubmit_ms", warm)
	b.out.report("peak_rss_mb", []float64{peakRSSMB()})
	b.traceOverhead(walls, tracedWalls)
	b.finishLayers()
	if first == nil {
		return nil
	}
	b.out.notes["events"], b.out.notes["digest"] = first.events, first.digest

	// The sharded run comes after the measurement, so its time and memory
	// stay out of the workload's end-to-end figures.
	runtime.GC()
	sharded, err := b.fattreeRound(parityShards, b.tr)
	if err != nil {
		b.out.check(fmt.Errorf("shards=%d run: %v", parityShards, err))
		return nil
	}
	b.out.check(checkSameRun(fmt.Sprintf("shards=%d against serial", parityShards), *first, sharded.id))
	b.out.notes["sharded_run_s"] = sharded.simRun.Seconds()
	for _, name := range shardedLayers {
		if v, ok := sharded.layer[name]; ok {
			b.out.layer[name] = v
		}
	}
	return nil
}
