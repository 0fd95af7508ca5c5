package main

import "strings"

// hostLayers are the groups a traced run's CPU profile is split into:
// the ROADMAP's six host layers, the garbage collector, and other.
var hostLayers = []string{"handoff", "sched", "semantics", "workload", "cellcache", "explore", "gc", "other"}

// layerPatterns assigns functions to host layers. A pattern ending in
// "." matches every function of that package, one ending in "*" every
// function whose name starts with the rest, and any other pattern that
// one function and its closures. A function takes the layer of its
// longest matching pattern. Runtime helpers that any layer calls
// (memmove, mallocgc, map access) match nothing, so their time goes
// to the caller's layer (see classify).
//
// A refactor that renames or deletes a function listed here moves its
// samples to another layer or to "other"; that is the intended
// signal, and the table should follow the code in the same change.
var layerPatterns = []struct{ layer, pattern string }{
	// Go runtime goroutine handoff: park/ready, the scheduler loop,
	// futex sleeps, and the channel and mutex slow paths under them.
	{"handoff", "runtime.mcall"},
	{"handoff", "runtime.park_m"},
	{"handoff", "runtime.gopark"},
	{"handoff", "runtime.goparkunlock"},
	{"handoff", "runtime.goready"},
	{"handoff", "runtime.ready"},
	{"handoff", "runtime.readyWithTime"},
	{"handoff", "runtime.schedule"},
	{"handoff", "runtime.findRunnable"},
	{"handoff", "runtime.stealWork"},
	{"handoff", "runtime.execute"},
	{"handoff", "runtime.gogo"},
	{"handoff", "runtime.Gosched"},
	{"handoff", "runtime.gosched_m"},
	{"handoff", "runtime.goschedImpl"},
	{"handoff", "runtime.goexit0"},
	{"handoff", "runtime.newproc"},
	{"handoff", "runtime.wakep"},
	{"handoff", "runtime.startm"},
	{"handoff", "runtime.stopm"},
	{"handoff", "runtime.mPark"},
	{"handoff", "runtime.handoffp"},
	{"handoff", "runtime.resetspinning"},
	{"handoff", "runtime.runq*"},
	{"handoff", "runtime.globrunq*"},
	{"handoff", "runtime.checkTimers"},
	{"handoff", "runtime.netpoll"},
	{"handoff", "runtime.futex"},
	{"handoff", "runtime.futexsleep"},
	{"handoff", "runtime.futexwakeup"},
	{"handoff", "runtime.notesleep"},
	{"handoff", "runtime.notetsleep_internal"},
	{"handoff", "runtime.notewakeup"},
	{"handoff", "runtime.osyield"},
	{"handoff", "runtime.usleep"},
	{"handoff", "runtime.procyield"},
	{"handoff", "runtime.lock2"},
	{"handoff", "runtime.unlock2"},
	{"handoff", "runtime.casgstatus"},
	{"handoff", "runtime.chansend"},
	{"handoff", "runtime.chanrecv"},
	{"handoff", "runtime.selectgo"},
	{"handoff", "runtime.semacquire1"},
	{"handoff", "runtime.semrelease1"},
	{"handoff", "sync.(*Mutex).lockSlow"},
	{"handoff", "sync.(*Mutex).unlockSlow"},
	{"handoff", "internal/sync.(*Mutex).lockSlow"},
	{"handoff", "internal/sync.(*Mutex).unlockSlow"},
	{"handoff", "sync.(*WaitGroup).Wait"},

	// The simulator's own scheduler: dispatch, park/grant, the run heap.
	{"sched", "armbar/internal/sim.(*Thread).dispatch"},
	{"sched", "armbar/internal/sim.(*Thread).park"},
	{"sched", "armbar/internal/sim.(*Thread).grant"},
	{"sched", "armbar/internal/sim.(*Thread).run"},
	{"sched", "armbar/internal/sim.(*Machine).Run"},
	{"sched", "armbar/internal/sim.(*Machine).Settle"},
	{"sched", "armbar/internal/sim.(*Machine).finishThread"},
	{"sched", "armbar/internal/sim.(*Machine).noteServed"},
	{"sched", "armbar/internal/sim.(*runHeap).*"},
	{"sched", "armbar/internal/sim.runLess"},

	// Simulation semantics: the rest of sim (op processing, compiled
	// dispatch, event heap) and the memory-system models.
	{"semantics", "armbar/internal/sim."},
	{"semantics", "armbar/internal/sb."},
	{"semantics", "armbar/internal/mesi."},
	{"semantics", "armbar/internal/ace."},
	{"semantics", "armbar/internal/topo."},
	{"semantics", "armbar/internal/isa."},
	{"semantics", "armbar/internal/platform."},
	{"semantics", "armbar/internal/core."},

	// Workload code: the simulated programs and the figure assembly.
	{"workload", "armbar/internal/locks."},
	{"workload", "armbar/internal/ds."},
	{"workload", "armbar/internal/pc."},
	{"workload", "armbar/internal/absmodel."},
	{"workload", "armbar/internal/scenario."},
	{"workload", "armbar/internal/barrier."},
	{"workload", "armbar/internal/prog."},
	{"workload", "armbar/internal/litmus."},
	{"workload", "armbar/internal/a64."},
	{"workload", "armbar/internal/ablation."},
	{"workload", "armbar/internal/dedup."},
	{"workload", "armbar/internal/floorplan."},
	{"workload", "armbar/internal/figures."},
	{"workload", "armbar/internal/report."},

	// The result cache and the cell codec.
	{"cellcache", "armbar/internal/cellcache."},
	{"cellcache", "armbar/internal/runner.encodeCell*"},
	{"cellcache", "armbar/internal/runner.decodeCell*"},
	{"cellcache", "encoding/gob."},

	{"explore", "armbar/internal/explore."},

	{"gc", "runtime.gc*"},
	{"gc", "runtime.bgsweep"},
	{"gc", "runtime.bgscavenge"},
	{"gc", "runtime.sweepone"},
	{"gc", "runtime.markroot*"},
	{"gc", "runtime.scanobject"},
	{"gc", "runtime.scanstack"},
	{"gc", "runtime.greyobject"},
	{"gc", "runtime.wbBufFlush*"},
}

// layerOf returns the layer of one function, or "" when no pattern
// matches it.
func layerOf(fn string) string {
	best, bestLen := "", -1
	for _, p := range layerPatterns {
		if matchPattern(p.pattern, fn) && len(p.pattern) > bestLen {
			best, bestLen = p.layer, len(p.pattern)
		}
	}
	return best
}

func matchPattern(pat, fn string) bool {
	switch {
	case strings.HasSuffix(pat, "*"):
		return strings.HasPrefix(fn, pat[:len(pat)-1])
	case strings.HasSuffix(pat, "."):
		// Package prefix: the rest must not continue the package path.
		rest, ok := strings.CutPrefix(fn, pat)
		return ok && !strings.Contains(rest, "/")
	default:
		return fn == pat || strings.HasPrefix(fn, pat+".func")
	}
}

// classify returns the layer of one sample: that of the innermost
// frame some pattern matches, or "other" when none does.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// layerShares splits the profile's CPU time across hostLayers.
func layerShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		out[classify(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}
