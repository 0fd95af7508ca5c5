package analysis

// This file is the committed configuration of the pass suite: which
// packages must stay deterministic (determvet) and which functions are
// hot paths that must stay allocation-free (allocvet).

// DeterministicPackages lists the import paths whose output feeds the
// seeded byte-identical pipeline (table rows, CSV, registry order,
// scheduling decisions). determvet runs only inside these; other
// packages may use wall clocks and global rand freely.
//
// "determ" and "suppress" are analysistest fixture packages for the
// pass and for the //armvet:ignore placement rules.
var DeterministicPackages = map[string]bool{
	"armbar/internal/sim":       true,
	"armbar/internal/prog":      true,
	"armbar/internal/figures":   true,
	"armbar/internal/report":    true,
	"armbar/internal/runner":    true,
	"armbar/internal/metrics":   true,
	"armbar/internal/mesi":      true,
	"armbar/internal/trace":     true,
	"armbar/internal/scenario":  true,
	"armbar/internal/cellcache": true,
	"armbar/internal/explore":   true,
	"determ":                    true,
	"suppress":                  true,
}

// HotPathFuncs is the committed list of functions on the simulator's
// per-operation critical path — the code the BENCH_sim.json perf gate
// pins at 0 allocs/op (BenchmarkRendezvousLoadHit,
// BenchmarkRendezvousTwoThreads, BenchmarkStoreCommit,
// BenchmarkStoreDMBFull). allocvet flags allocation-forcing constructs
// inside them. Keys are "importpath.Receiver.name" (receiver
// star-stripped) or "importpath.name" for plain functions.
//
// Deliberately excluded: addrTimes.grow and Directory.line (rare
// resize / lazy-init paths that allocate by design and are amortized
// away), Machine.fatalStuck / Machine.stuckReport / Machine.finishThread
// / Machine.prime / Machine.stopThreads (error, setup and shutdown
// paths), Thread.start (coroutine creation, once per closure thread),
// and everything the benchmarks never
// reach. Fixture functions opt in with an `// armvet:hotpath` doc
// marker instead of being listed here.
var HotPathFuncs = map[string]bool{
	// Scheduler driver loop and its steps (internal/sim/sched.go).
	"armbar/internal/sim.Machine.drive":       true,
	"armbar/internal/sim.Machine.stepProgram": true,
	"armbar/internal/sim.Thread.dispatch":     true,
	"armbar/internal/sim.Thread.suspend":      true,
	"armbar/internal/sim.Machine.noteServed":  true,
	"armbar/internal/sim.runHeap.len":         true,
	"armbar/internal/sim.runHeap.min":         true,
	"armbar/internal/sim.runHeap.isMin":       true,
	"armbar/internal/sim.runLess":             true,
	"armbar/internal/sim.runHeap.push":        true,
	"armbar/internal/sim.runHeap.fixMin":      true,
	"armbar/internal/sim.runHeap.popMin":      true,
	"armbar/internal/sim.runHeap.down":        true,

	// Operation engine (internal/sim/thread.go, machine.go).
	"armbar/internal/sim.Thread.op":            true,
	"armbar/internal/sim.Thread.Load":          true,
	"armbar/internal/sim.Thread.LoadAcquire":   true,
	"armbar/internal/sim.Thread.LoadAcquirePC": true,
	"armbar/internal/sim.Thread.Store":         true,
	"armbar/internal/sim.Thread.StoreRelease":  true,
	"armbar/internal/sim.Thread.Barrier":       true,
	"armbar/internal/sim.Machine.process":      true,
	"armbar/internal/sim.Machine.doLoad":       true,
	"armbar/internal/sim.Machine.doStore":      true,
	"armbar/internal/sim.Machine.doBarrier":    true,
	"armbar/internal/sim.Machine.doRMW":        true,
	"armbar/internal/sim.Machine.forward":      true,
	"armbar/internal/sim.Machine.readCache":    true,
	"armbar/internal/sim.Machine.retireStores": true,
	"armbar/internal/sim.Machine.apply":        true,
	"armbar/internal/sim.Machine.schedule":     true,
	"armbar/internal/sim.Machine.newEvent":     true,
	"armbar/internal/sim.Machine.recycle":      true,
	"armbar/internal/sim.Machine.invProc":      true,
	"armbar/internal/sim.Machine.emit":         true,

	// Compiled-engine dispatch (internal/sim/compiled.go).
	// BenchmarkCompiledDispatch pins the whole program-execution path
	// at 0 allocs/op.
	"armbar/internal/sim.Machine.execStep":    true,
	"armbar/internal/sim.execEnv.addr":        true,
	"armbar/internal/sim.execEnv.value":       true,
	"armbar/internal/sim.execEnv.stepControl": true,
	"armbar/internal/sim.execEnv.done":        true,
	"armbar/internal/sim.execLoad":            true,
	"armbar/internal/sim.execLoadAcq":         true,
	"armbar/internal/sim.execLoadAcqPC":       true,
	"armbar/internal/sim.execStore":           true,
	"armbar/internal/sim.execStoreRel":        true,
	"armbar/internal/sim.execBarrier":         true,
	"armbar/internal/sim.execWork":            true,
	"armbar/internal/sim.execFetchAdd":        true,
	"armbar/internal/sim.execSwap":            true,
	"armbar/internal/sim.execCAS":             true,
	"armbar/internal/sim.execRMW":             true,
	"armbar/internal/sim.execSpinEQ":          true,
	"armbar/internal/sim.execSpinNE":          true,
	"armbar/internal/sim.execSpinGE":          true,
	"armbar/internal/sim.storeStall":          true,
	"armbar/internal/sim.rmwStall":            true,

	// Cycle-attribution profiler (internal/sim/profile.go): every
	// clock advance in both engines funnels through these, profiled
	// or dark, so they must never allocate.
	"armbar/internal/sim.Thread.advBy":  true,
	"armbar/internal/sim.Thread.advTo":  true,
	"armbar/internal/sim.Thread.attrBy": true,
	"armbar/internal/sim.Thread.attrTo": true,

	// Event queue and last-store table (event.go, addrmap.go).
	"armbar/internal/sim.eventHeap.len":  true,
	"armbar/internal/sim.eventHeap.min":  true,
	"armbar/internal/sim.eventLess":      true,
	"armbar/internal/sim.eventHeap.push": true,
	"armbar/internal/sim.eventHeap.pop":  true,
	"armbar/internal/sim.addrTimes.hash": true,
	"armbar/internal/sim.addrTimes.get":  true,
	"armbar/internal/sim.addrTimes.put":  true,

	// Store buffer (internal/sb).
	"armbar/internal/sb.Buffer.Push":      true,
	"armbar/internal/sb.Buffer.Forward":   true,
	"armbar/internal/sb.Buffer.Remove":    true,
	"armbar/internal/sb.Buffer.Full":      true,
	"armbar/internal/sb.Buffer.Len":       true,
	"armbar/internal/sb.Buffer.MinCommit": true,
	"armbar/internal/sb.Buffer.MaxCommit": true,

	// Coherence directory (internal/mesi). The sharded sharer-bitset
	// primitives (lineBits, sharerWord, rank) and the atomic
	// line-occupancy gate run once or more per access at every core
	// count; BenchmarkDirectoryRank1024 and
	// BenchmarkDirectorySharerChurn1024 pin them at 0 allocs/op at the
	// 1024-core preset.
	"armbar/internal/mesi.LineOf":                   true,
	"armbar/internal/mesi.Copy.Valid":               true,
	"armbar/internal/mesi.Copy.StaleValue":          true,
	"armbar/internal/mesi.Directory.CommitStore":    true,
	"armbar/internal/mesi.Directory.Fetch":          true,
	"armbar/internal/mesi.Directory.install":        true,
	"armbar/internal/mesi.Directory.AccessDistance": true,
	"armbar/internal/mesi.Directory.HasValidCopy":   true,
	"armbar/internal/mesi.Directory.IsRMR":          true,
	"armbar/internal/mesi.Directory.CopyAt":         true,
	"armbar/internal/mesi.Directory.Committed":      true,
	"armbar/internal/mesi.Directory.PrevCommitted":  true,
	"armbar/internal/mesi.Directory.DropCopy":       true,
	"armbar/internal/mesi.Directory.lineBits":       true,
	"armbar/internal/mesi.sharerWord":               true,
	"armbar/internal/mesi.Directory.rank":           true,
	"armbar/internal/mesi.Directory.AcquireAtomic":  true,

	// Interconnect cost model (internal/ace).
	"armbar/internal/ace.Fabric.Response": true,

	// Result-cache lookup (internal/cellcache): every cell probes the
	// cache before simulating, so key build + map probe must not
	// allocate (BenchmarkCellCacheHit pins this at 0 allocs/op).
	"armbar/internal/cellcache.keyFor":    true,
	"armbar/internal/cellcache.Cache.Get": true,

	// Packed-state explorer visit loop (internal/explore/fast.go,
	// pack.go, table.go): expandOne runs once per reachable state and
	// everything below it once per transition, so the whole loop must
	// stay allocation-free in steady state (BenchmarkExploreStates pins
	// the lattice sweep; per-run setup — newFastExplorer, layout.build,
	// vtable.grow, terminal's outcome-string rendering — allocates by
	// design and is excluded, like addrTimes.grow above). Witness
	// recording runs through the same pinned functions: emit and
	// expandOne only test rec for nil, and the one allocating append
	// sits in the out-of-line fastExplorer.record, which only a
	// recording pass calls and which is excluded for the same reason.
	"armbar/internal/explore.fastExplorer.expandOne":     true,
	"armbar/internal/explore.fastExplorer.emit":          true,
	"armbar/internal/explore.fastExplorer.issue":         true,
	"armbar/internal/explore.fastExplorer.loads":         true,
	"armbar/internal/explore.fastExplorer.finishLoad":    true,
	"armbar/internal/explore.fastExplorer.barrier":       true,
	"armbar/internal/explore.fastExplorer.commits":       true,
	"armbar/internal/explore.fastExplorer.eligible":      true,
	"armbar/internal/explore.fastExplorer.markClearable": true,
	"armbar/internal/explore.fastExplorer.dropClearable": true,
	"armbar/internal/explore.fastExplorer.dropStaleAddr": true,
	"armbar/internal/explore.fastExplorer.addStale":      true,
	"armbar/internal/explore.layout.pack":                true,
	"armbar/internal/explore.bitCursor.put":              true,
	"armbar/internal/explore.bitCursor.get":              true,
	"armbar/internal/explore.vtable.insert":              true,
	"armbar/internal/explore.hashWords":                  true,
	"armbar/internal/explore.equalWords":                 true,
}
