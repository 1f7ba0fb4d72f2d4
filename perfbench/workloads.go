package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/charm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sizes fixes how much untimed and probe work a run does, whatever its
// length.
type sizes struct {
	rounds         int // fresh worlds per run, each getting an equal share of the timed load
	ppWarmup       int // pingpong trips of each kind before the first timed one
	ppBlock        int // pingpong trips per timed block
	probePairs     int // block pairs of the RTT probe in each round
	setupJobs      int // warm-up jobs before the first timed job
	probeJobs      int // jobs of the latency probe in each round
	haloSetupIters int // iterations of the warm-up stencil Run
	haloIters      int // timed iterations per stencil Run
	genRuns        int // short generations timed for the run tail
	genTrips       int // trips of each kind in each of them
	wakes          int // cross-PE wakes timed
}

// fullSizes is what the benchmark runs. A world settles into a fast or
// a slow mode for its lifetime (which goroutines share a CPU, whether
// its PEs spin or park), and one world's figures can sit 30% off
// another's; 32 rounds mix 32 worlds into every metric.
var fullSizes = sizes{
	rounds:         32,
	ppWarmup:       500,
	ppBlock:        250,
	probePairs:     1,
	setupJobs:      20,
	probeJobs:      30,
	haloSetupIters: 200,
	haloIters:      100,
	genRuns:        20,
	genTrips:       20,
	wakes:          2000,
}

// phase is what one round's timed load did: its timed ops and their
// wall time, and the counter delta over the ops it covers (the timed
// ops, plus the warm-up where one generation runs both).
type phase struct {
	ops     float64
	elapsed time.Duration
	counted float64
	tasks   float64 // scheduler tasks over the counted ops; 0 where not observable
	delta   counters
}

// roundFn runs one round's warm-up and timed load of d on a fresh
// world. It returns when the last warm-up op ended and what the timed
// load did.
type roundFn func(r *run, w *world, d time.Duration, traced bool) (time.Time, phase, error)

// workload is one named load and the fixed probes that fill in the
// end-to-end metrics its own ops do not produce.
type workload struct {
	shm          bool
	round        roundFn
	rttProbe     bool // the load has no round trips of its own
	jobsProbe    bool // the load runs no jobs
	stencilProbe bool // the load runs no stencil (traced runs only)
}

var workloads = map[string]workload{
	"pingpong": {shm: true, round: pingpongRound, jobsProbe: true, stencilProbe: true},
	"halo":     {shm: true, round: haloRound, rttProbe: true, jobsProbe: true},
	"halo_tcp": {shm: false, round: haloRound, rttProbe: true, jobsProbe: true},
	"jobs":     {shm: true, round: jobsRound, rttProbe: true, stencilProbe: true},
}

// drive runs the workload's rounds and reports its metrics. In a traced
// run every other round is traced: the untraced rounds give the counter
// metrics and the baseline for the tracing overhead, the traced ones
// the spans and per-call timings.
func (wl workload) drive(r *run) error {
	per := r.timed / time.Duration(r.sz.rounds)
	var w *world
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for i := 0; i < r.sz.rounds; i++ {
		if w != nil {
			w.close()
		}
		traced := r.traced && i%2 == 1
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = bootWorld(wl.shm, r.seed+uint64(i)); err != nil {
			return err
		}
		r.layer.boot = append(r.layer.boot, w.boot.Seconds()*1e3)
		warmEnd, p, err := wl.round(r, w, per, traced)
		if err != nil {
			return err
		}
		r.e2e.setup = append(r.e2e.setup, warmEnd.Sub(t0).Seconds())
		r.layer.addPhase(p, traced)
		if wl.rttProbe {
			res := runPingpong(w.nodes, ppConfig{warmup: r.sz.ppWarmup, block: r.sz.ppBlock, pairs: r.sz.probePairs, seed: r.seed, traced: traced})
			r.session(res)
		}
		if wl.jobsProbe {
			m, err := startJobs(w)
			if err != nil {
				return err
			}
			samples, _ := m.runJobs(r, r.sz.probeJobs, 0)
			if err := m.stop(); err != nil {
				return err
			}
			r.roundJobs(samples, traced)
		}
	}
	if r.traced {
		return r.tracedExtras(w, wl.stencilProbe)
	}
	return nil
}

// pingpongRound: the benchmark's own 64 KiB ping-pong, warm-up and timed
// blocks in one run generation.
func pingpongRound(r *run, w *world, d time.Duration, traced bool) (time.Time, phase, error) {
	before := w.snapshot()
	res := runPingpong(w.nodes, ppConfig{warmup: r.sz.ppWarmup, block: r.sz.ppBlock, timed: d, seed: r.seed, traced: traced})
	p := phase{
		ops:     float64(res.timedTrips),
		elapsed: res.lastCB.Sub(res.warmEnd),
		counted: float64(res.attempted),
		tasks:   float64(res.executed),
		delta:   w.snapshot().sub(before),
	}
	r.session(res)
	r.e2e.ops += p.ops
	r.e2e.elapsed += p.elapsed
	return res.warmEnd, p, nil
}

// haloRound: one warm-up stencil Run, then validated Runs back to back.
func haloRound(r *run, w *world, d time.Duration, traced bool) (time.Time, phase, error) {
	runStencil(w.nodes, r.sz.haloSetupIters).count(r)
	warmEnd := time.Now()
	before := w.snapshot()
	var p phase
	runs := 0
	for time.Since(warmEnd) < d {
		start := time.Now()
		h := runStencil(w.nodes, r.sz.haloIters)
		h.count(r)
		p.counted += float64(h.iters)
		p.tasks += float64(h.events)
		if len(h.errs) > 0 {
			continue
		}
		measured := h.iterTime * time.Duration(h.timed)
		runs++
		r.e2e.rates = append(r.e2e.rates, 1/h.iterTime.Seconds())
		p.ops += float64(h.timed)
		p.elapsed += measured
		r.layer.setupValidate = append(r.layer.setupValidate, (h.wall-measured).Seconds()*1e3)
		if traced {
			r.spans = append(r.spans, span{op: opStencil | uint64(len(r.spans)), name: spanStencil,
				start: time.Duration(start.UnixNano()), end: time.Duration(start.Add(h.wall).UnixNano())})
		}
	}
	p.delta = w.snapshot().sub(before)
	if runs == 0 {
		return warmEnd, p, fmt.Errorf("no stencil run succeeded in a round")
	}
	return warmEnd, p, nil
}

// jobsRound: a ckserve deployment on the world, warm-up jobs, then jobs
// back to back, closed loop with one in flight.
func jobsRound(r *run, w *world, d time.Duration, traced bool) (time.Time, phase, error) {
	m, err := startJobs(w)
	if err != nil {
		return time.Time{}, phase{}, err
	}
	m.runJobs(r, r.sz.setupJobs, 0)
	warmEnd := time.Now()
	before := w.snapshot()
	samples, elapsed := m.runJobs(r, 0, d)
	p := phase{ops: float64(len(samples)), elapsed: elapsed, counted: float64(len(samples)), delta: w.snapshot().sub(before)}
	if err := m.stop(); err != nil {
		return warmEnd, p, err
	}
	r.e2e.ops += p.ops
	r.e2e.elapsed += elapsed
	r.roundJobs(samples, traced)
	return warmEnd, p, nil
}

// session counts a pingpong session's trips and pools its round trips
// and per-layer samples.
func (r *run) session(res ppResult) {
	r.count(res.attempted, res.failed, res.failures)
	r.e2e.ckdRTT = append(r.e2e.ckdRTT, res.ckdRTT...)
	r.e2e.msgRTT = append(r.e2e.msgRTT, res.msgRTT...)
	l := &r.layer
	l.build = append(l.build, res.build.Seconds()*1e3)
	l.putCall = append(l.putCall, res.putCall...)
	l.sendCall = append(l.sendCall, res.sendCall...)
	l.ckdOneway = append(l.ckdOneway, res.ckdOneway...)
	l.msgOneway = append(l.msgOneway, res.msgOneway...)
	if l.tripTasks == 0 && res.attempted > 0 {
		l.tripTasks = float64(res.executed) / float64(res.attempted)
	}
	// Trip numbers restart with every session; number them on from the
	// run's previous sessions so each trip's spans stay one op.
	for _, sp := range res.spans {
		sp.op = opTrip | (r.trips + sp.op)
		r.spans = append(r.spans, sp)
	}
	r.trips += uint64(res.attempted)
}

// roundJobs pools a round's jobs.
func (r *run) roundJobs(samples []jobSample, traced bool) {
	for _, s := range samples {
		r.e2e.jobLatency = append(r.e2e.jobLatency, s.latency.Seconds()*1e3)
	}
	r.layer.jobs = append(r.layer.jobs, samples...)
	if traced {
		r.jobSpans(samples)
	}
}

// jobSpans records each job as a client-side root span with the
// server's own timestamps as its children: queueing, rank 0's
// execution, and the wait for worker reports after it. All four are on
// the wall clock, which the in-process server shares.
func (r *run) jobSpans(samples []jobSample) {
	for _, s := range samples {
		j := s.job
		op := opJob | uint64(len(r.spans))
		end := time.Duration(j.Finished.UnixNano())
		started := time.Duration(j.Started.UnixNano())
		execEnd := started + time.Duration(j.Local.ElapsedMS*float64(time.Millisecond))
		r.spans = append(r.spans,
			span{op: op, name: spanJob, start: end - s.latency, end: end},
			span{op: op, name: spanQueue, parent: spanJob, start: time.Duration(j.Submitted.UnixNano()), end: started},
			span{op: op, name: spanExec, parent: spanJob, start: started, end: execEnd},
			span{op: op, name: spanReport, parent: spanJob, start: execEnd, end: end})
	}
}

// tracedExtras measures, on the last round's world and on real-backend
// controls, what a traced run reports once: the run tail and
// termination rounds of short generations, the stencil's set-up cost
// where the load runs no stencil, the real-backend controls, and then
// every pooled per-layer metric.
func (r *run) tracedExtras(w *world, stencilProbe bool) error {
	var tails []float64
	before := w.snapshot()
	for i := 0; i < r.sz.genRuns; i++ {
		res := runPingpong(w.nodes, ppConfig{warmup: r.sz.genTrips, seed: r.seed})
		r.count(res.attempted, res.failed, res.failures)
		tails = append(tails, micros(res.end.Sub(res.lastCB)))
	}
	rounds := w.snapshot().sub(before).net.TermProbeRounds
	r.set("netrt.run_tail_us", "us", median(tails))
	r.set("netrt.probe_rounds_per_run", "count", float64(rounds)/float64(r.sz.genRuns))
	r.set("netrt.conns_opened", "count", float64(w.connsOpened()))
	if stencilProbe {
		h := runStencil(w.nodes, r.sz.haloIters)
		h.count(r)
		if len(h.errs) == 0 {
			r.layer.setupValidate = append(r.layer.setupValidate, (h.wall-h.iterTime*time.Duration(h.timed)).Seconds()*1e3)
		}
	}

	ctrl := runPingpong(nil, ppConfig{warmup: r.sz.ppWarmup, block: r.sz.ppBlock, pairs: r.sz.probePairs, seed: r.seed})
	r.count(ctrl.attempted, ctrl.failed, ctrl.failures)
	r.set("realrt.ctrl_ckd_rtt_p50_us", "us", median(ctrl.ckdRTT))
	r.set("realrt.ctrl_msg_rtt_p50_us", "us", median(ctrl.msgRTT))
	h := runStencil(nil, r.sz.haloIters)
	h.count(r)
	if len(h.errs) > 0 {
		return fmt.Errorf("real-backend stencil control: %v", h.errs[0])
	}
	r.set("realrt.ctrl_iter_ms", "ms", h.iterTime.Seconds()*1e3)
	r.set("realrt.wake_us", "us", median(wakeLatencies(r.sz.wakes)))
	r.layer.report(r)
	return nil
}

// wakeLatencies times n cross-PE wakes on a two-PE real-backend RTS:
// from an EnqueueOn on one PE until the task runs on the other.
func wakeLatencies(n int) []float64 {
	eng := sim.NewEngine()
	mach, net := ppPlatform.BuildMachine(eng, 2)
	rts := charm.NewRTS(eng, mach, net, ppPlatform, trace.NewRecorder(), charm.Options{Backend: charm.RealBackend})
	out := make([]float64, 0, n)
	var bounce func(pe int)
	bounce = func(pe int) {
		if len(out) == n {
			return
		}
		t0 := time.Now()
		other := 1 - pe
		rts.EnqueueOn(other, func() {
			out = append(out, micros(time.Since(t0)))
			bounce(other)
		})
	}
	rts.StartAt(0, func(*charm.Ctx) { bounce(0) })
	rts.Run()
	return out
}

// layerData pools a run's per-layer samples across its rounds.
type layerData struct {
	boot, build, setupValidate []float64 // ms
	putCall, sendCall          []float64 // ns
	ckdOneway, msgOneway       []float64 // us
	jobs                       []jobSample

	delta     counters     // summed over untraced rounds
	counted   float64      // ops the delta covers
	tasks     float64      // scheduler tasks the load's own ops ran, where it shows them
	tasksOps  float64      // the ops those tasks served
	tripTasks float64      // tasks per pingpong trip, for loads that show none
	perOp     [2][]float64 // seconds per timed op by round: untraced, traced
}

func (l *layerData) addPhase(p phase, traced bool) {
	if p.ops > 0 {
		l.perOp[kindIdx(traced)] = append(l.perOp[kindIdx(traced)], p.elapsed.Seconds()/p.ops)
	}
	if traced {
		return
	}
	l.delta = l.delta.add(p.delta)
	l.counted += p.counted
	if p.tasks > 0 {
		l.tasks += p.tasks
		l.tasksOps += p.counted
	}
}

// report sets every pooled per-layer metric.
func (l *layerData) report(r *run) {
	d, ops := l.delta, l.counted
	r.set("netrt.boot_ms", "ms", median(l.boot))
	r.set("netrt.shm_coalesced_per_op", "count", ratio(float64(d.net.ShmFramesCoalesced), ops))
	r.set("netrt.batch_moves_per_kop", "count", 1e3*ratio(float64(d.net.BatchGrows+d.net.BatchShrinks), ops))
	r.set("netrt.eager_shrinks_per_kop", "count", 1e3*ratio(float64(d.net.EagerShrinks), ops))
	r.set("bufpool.gets_per_op", "count", ratio(float64(d.pool.Gets), ops))
	r.set("bufpool.miss_ratio", "ratio", ratio(float64(d.pool.Misses), float64(d.pool.Gets)))
	r.set("mem.allocs_per_op", "count", ratio(float64(d.mallocs), ops))
	r.set("mem.bytes_per_op", "B", ratio(float64(d.bytes), ops))
	r.set("mem.gcs_per_kop", "count", 1e3*ratio(float64(d.gc), ops))
	if l.tasksOps > 0 {
		r.set("realrt.tasks_per_op", "count", l.tasks/l.tasksOps)
	} else {
		r.set("realrt.tasks_per_op", "count", l.tripTasks)
	}
	u, t := median(l.perOp[0]), median(l.perOp[1])
	r.set("trace.overhead_pct", "%", 100*ratio(t-u, u))

	r.set("charm.rts_build_ms", "ms", median(l.build))
	r.set("ckdirect.put_call_ns", "ns", median(l.putCall))
	r.set("charm.send_call_ns", "ns", median(l.sendCall))
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		r.setQuantile("ckdirect.put_oneway_"+q.name+"_us", "us", l.ckdOneway, q.q)
		r.setQuantile("charm.send_oneway_"+q.name+"_us", "us", l.msgOneway, q.q)
	}
	r.set("stencil.setup_validate_ms", "ms", median(l.setupValidate))

	var http, queue, exec, report, worker []float64
	for _, s := range l.jobs {
		j := s.job
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		http = append(http, ms(s.latency-j.Finished.Sub(j.Submitted)))
		queue = append(queue, ms(j.Started.Sub(j.Submitted)))
		exec = append(exec, j.Local.ElapsedMS)
		report = append(report, ms(j.Finished.Sub(j.Started))-j.Local.ElapsedMS)
		for _, o := range j.Workers {
			worker = append(worker, o.ElapsedMS)
		}
	}
	r.set("serve.http_ms", "ms", median(http))
	r.set("serve.queue_ms", "ms", median(queue))
	r.set("serve.exec_ms", "ms", median(exec))
	r.set("serve.report_wait_ms", "ms", median(report))
	r.set("serve.worker_exec_ms", "ms", median(worker))

	// Self time per layer for the ops the benchmark itself roots: trips
	// and jobs. A stencil Run is one call with no children to subtract.
	for root, byLayer := range selfTimes(r.spans) {
		layer, kind, _ := strings.Cut(root, ".")
		if layer != "bench" {
			continue
		}
		for l, us := range byLayer {
			r.set(fmt.Sprintf("self.%s.%s_us", kind, l), "us", us)
		}
	}
}
