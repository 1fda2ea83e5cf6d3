package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"gpunoc/internal/core"
	"gpunoc/internal/obs"
)

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 101

// minCoverage is the share of a traced pass the core phases must cover.
const minCoverage = 0.95

// passStats is one closed-loop pass over a workload's keys.
type passStats struct {
	wall time.Duration
	// cpu is the process's CPU time over the pass.
	cpu   time.Duration
	alloc uint64
	// lat holds the successful fills' CPU times.
	lat map[key]time.Duration
	ok  int

	// The rest is filled on traced passes only.
	setup, run, render time.Duration
	famRun             map[string]time.Duration
	famAlloc           map[string]uint64
	expRun             map[string]time.Duration
	counts             simCounts
}

// runLibrary runs matrix_quick or noc_full: a closed loop with one
// caller that cold-fills every key of the set per pass, in an order the
// seed permutes anew for each pass, until the measuring time is spent.
// A traced run alternates untraced and traced passes, so it measures
// its own overhead.
func runLibrary(o options, keysFn func() []key, t *tally) (metrics, error) {
	m := metrics{}
	exp, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	var keys []key
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Each repeat starts from a collected heap, as each fill does.
		runtime.GC()
		start := time.Now()
		keys = keysFn()
		for _, k := range keys {
			if _, _, err := newContext(k); err != nil {
				return nil, err
			}
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	m.set("setup_s", median(setups))

	checks, err := paperChecks()
	if err != nil {
		return nil, err
	}
	m.set("paper_checks_passed", float64(checks))

	rng := rand.New(rand.NewSource(o.seed))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var plain, traced []passStats
	var fillID int64
	sabotageBody := o.sabotageBody
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for pass := 0; ; pass++ {
		var ptr *tracer
		if o.trace && pass%2 == 1 {
			ptr = tr
		}
		ps := passStats{lat: map[key]time.Duration{}, famRun: map[string]time.Duration{}, famAlloc: map[string]uint64{}, expRun: map[string]time.Duration{}}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		passStart, passCPU := time.Now(), cpuTime()
		for _, k := range permute(rng, keys) {
			// Each fill starts from a collected heap, so the garbage the
			// fill before it left (fig18 leaves ~200 MB) does not slow it;
			// the seeded order would otherwise decide which fills pay.
			runtime.GC()
			fillID++
			var reg *obs.Registry
			if ptr != nil {
				reg = obs.New()
			}
			fillStart, fillCPU := time.Now(), cpuTime()
			f := coldFill(k, reg, ptr != nil)
			d := cpuTime() - fillCPU
			if sabotageBody && f.err == nil {
				f.bodies[0][0] ^= 1
				sabotageBody = false
			}
			if verifyFill(k, f, exp, t) {
				ps.ok++
				ps.lat[k] = d
			}
			if ptr != nil {
				traceFill(ptr, fillID, k, f, fillStart, &ps)
				ledgerCheck(k, reg, exp, t, &ps)
			}
		}
		ps.wall = time.Since(passStart)
		ps.cpu = cpuTime() - passCPU
		runtime.ReadMemStats(&ms)
		ps.alloc = ms.TotalAlloc - alloc0
		if ptr != nil {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
		if time.Now().After(deadline) && (!o.trace || len(traced) > 0) {
			break
		}
	}

	// The end-to-end times are the process's CPU time, not wall time:
	// on a shared VM the host takes a varying share of the CPUs (from
	// 0.1 % to 18 % from one run to the next), which moved a pass's wall
	// time by a third and its CPU time by a tenth. One caller fills one
	// key at a time, so the CPU time is the fill's own work plus the
	// garbage collection it causes.
	//
	// Each key's latency is its median over the passes. The keys take
	// from 0.1 ms to seconds, so a plain p50 over keys sits on whichever
	// short key is in the middle (ext5's 15-30 ms on noc_full) and jumps
	// with it; the p50 is therefore taken over the passes' time: the
	// fill latency below which half of the fill time is spent.
	var cpus, allocs, rates []float64
	perKey := map[key][]float64{}
	for _, ps := range plain {
		cpus = append(cpus, seconds(ps.cpu))
		allocs = append(allocs, float64(ps.alloc)/1e6)
		rates = append(rates, float64(ps.ok)/seconds(ps.cpu))
		for k, d := range ps.lat {
			perKey[k] = append(perKey[k], millis(d))
		}
	}
	var lat []float64
	for _, ds := range perKey {
		lat = append(lat, median(ds))
	}
	m.set("pass_s", median(cpus))
	m.set("alloc_mb", median(allocs))
	m.set("req_p50_ms", timeMedian(lat))
	m.set("req_p99_ms", rank(lat, 99))
	m.set("goodput_rps", median(rates))
	if o.trace {
		libraryLayers(m, plain, traced, t)
		if err := tr.write(o.workdir, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// cpuTime returns the CPU time the process has used, in user and
// system mode, over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// verifyFill counts one fill as an operation: ok when every rendering
// matches its digest, failed otherwise. The known defect's refusal is a
// standing failure; anything else is a problem. It reports success.
func verifyFill(k key, f fill, exp expected, t *tally) bool {
	if f.err != nil {
		if isKnownRefusal(k, f.err.Error()) {
			t.standing()
		} else {
			t.fail(fmt.Sprintf("%s: %v", k, f.err))
		}
		return false
	}
	for i, b := range f.bodies {
		if msg := exp.check(k, i, b); msg != "" {
			t.fail(msg)
			return false
		}
	}
	t.ok()
	return true
}

// paperChecks counts how many of the paper's 12 observations and 6
// implications the model reproduces.
func paperChecks() (int, error) {
	obsv, err := core.CheckObservations()
	if err != nil {
		return 0, err
	}
	imps, err := core.CheckImplications()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, o := range obsv {
		if o.Pass {
			n++
		}
	}
	for _, im := range imps {
		if im.Pass {
			n++
		}
	}
	return n, nil
}

// traceFill records the fill's spans and adds its phases to the pass.
func traceFill(tr *tracer, id int64, k key, f fill, start time.Time, ps *passStats) {
	root := tr.add("fill", id, -1, start, 0, k.String())
	tr.add("core.setup", id, root, f.setupAt, f.setup, "")
	fam := familyOf[k.Exp]
	if !f.runAt.IsZero() {
		tr.add("core.run", id, root, f.runAt, f.run, "engine."+fam)
	}
	if !f.renderAt.IsZero() {
		tr.add("core.render", id, root, f.renderAt, f.render, "")
	}
	tr.finish(root, time.Now())
	ps.setup += f.setup
	ps.run += f.run
	ps.render += f.render
	ps.famRun[fam] += f.run
	ps.famAlloc[fam] += f.runAlloc
	ps.expRun[k.Exp] += f.run
}

// ledgerCheck compares the fill's simulated statistics with the
// recorded ones: the same code must simulate the same events.
func ledgerCheck(k key, reg *obs.Registry, exp expected, t *tally, ps *passStats) {
	c, err := countsOf(reg)
	if err != nil {
		t.incorrect(fmt.Sprintf("%s: %v", k, err))
		return
	}
	ps.counts.add(c)
	if e, ok := exp[k.String()]; ok && c != e.Counts {
		t.incorrect(fmt.Sprintf("%s: simulated statistics %+v, recorded %+v", k, c, e.Counts))
	}
}

// libraryLayers reports the traced passes' per-layer metrics, per pass,
// and runs the composition checks.
func libraryLayers(m metrics, plain, traced []passStats, t *tally) {
	n := float64(len(traced))
	var wall, setup, run, render time.Duration
	fam := map[string]time.Duration{}
	famAlloc := map[string]uint64{}
	expRun := map[string]time.Duration{}
	var walls []float64
	for i, ps := range traced {
		wall += ps.wall
		setup += ps.setup
		run += ps.run
		render += ps.render
		walls = append(walls, seconds(ps.wall))
		for f, d := range ps.famRun {
			fam[f] += d
		}
		for f, a := range ps.famAlloc {
			famAlloc[f] += a
		}
		for id, d := range ps.expRun {
			expRun[id] += d
		}
		if ps.counts != traced[0].counts {
			t.incorrect(fmt.Sprintf("simulated statistics of traced pass %d differ from pass 0: %+v vs %+v", i, ps.counts, traced[0].counts))
		}
	}
	m.set("core.setup_ms", millis(setup)/n)
	m.set("core.run_s", seconds(run)/n)
	m.set("core.render_ms", millis(render)/n)
	coverage := float64(setup+run+render) / float64(wall)
	m.set("core.coverage", coverage)
	if coverage < minCoverage {
		t.incorrect(fmt.Sprintf("composition: core setup+run+render cover %.1f%% of the traced pass time, want at least %.0f%%", 100*coverage, 100*minCoverage))
	}
	var famSum time.Duration
	for _, f := range families {
		famSum += fam[f]
		m.set("engine."+f+"_s", seconds(fam[f])/n)
		m.set("engine."+f+"_alloc_mb", float64(famAlloc[f])/1e6/n)
	}
	if famSum != run {
		t.incorrect(fmt.Sprintf("composition: engine families sum to %s, core.run is %s (an experiment has no family)", famSum, run))
	}
	for id, d := range expRun {
		m.set("exp."+id+"_ms", millis(d)/n)
	}
	c := traced[0].counts
	m.set("noc.flits_ejected", float64(c.FlitsEjected))
	m.set("noc.mc_served", float64(c.MCServed))
	m.set("noc.stall_credit", float64(c.StallCredit))
	m.set("noc.stall_voq_full", float64(c.StallVOQFull))
	m.set("microbench.probes", float64(c.Probes))
	if c.FlitsEjected > 0 {
		m.set("noc.ns_per_flit", float64(fam["noc"])/n/float64(c.FlitsEjected))
	}
	var plainWalls []float64
	for _, ps := range plain {
		plainWalls = append(plainWalls, seconds(ps.wall))
	}
	m.set("trace.overhead_pct", 100*(median(walls)/median(plainWalls)-1))
}
