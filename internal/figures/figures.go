// Package figures regenerates every table and figure of the paper's
// evaluation from the reproduction's experiment packages. Each
// function returns report tables with the same rows/series the paper
// plots; cmd/armbar prints them and bench_test.go wraps them in
// testing.B benchmarks.
//
// Every generator decomposes its figure into independent cells — one
// (or a few) sim.Machine per platform × data-point — and evaluates
// them through the runner pool carried in Options. Results are merged
// back in canonical order, so output is byte-identical whether the
// pool is nil (inline, sequential) or GOMAXPROCS-wide; see
// internal/runner and its determinism test.
package figures

import (
	"fmt"

	"armbar/internal/absmodel"
	"armbar/internal/dedup"
	"armbar/internal/ds"
	"armbar/internal/floorplan"
	"armbar/internal/isa"
	"armbar/internal/litmus"
	"armbar/internal/locks"
	"armbar/internal/pc"
	"armbar/internal/platform"
	"armbar/internal/report"
	"armbar/internal/runner"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Options scales the experiments: Quick shrinks iteration counts for
// fast smoke runs; the zero value is the full configuration. Pool is
// the worker pool experiment cells fan out over; nil runs every cell
// inline on the caller's goroutine (the sequential baseline).
//
// Cache is the persistent cell-result cache (internal/cellcache); nil
// disables caching. Cached lookups only happen under an experiment
// scope — Scoped(name) binds one — so generators invoked directly with
// an unscoped Options always recompute.
type Options struct {
	Quick bool
	Seed  int64
	Pool  *runner.Pool
	Cache runner.CellCache

	scope *cellScope
}

// cellScope tracks, per experiment invocation, how many cell fan-outs
// the generator has issued so far: the sequence number keeps two Map
// calls of one generator from colliding on the same cache keys. Cell
// fan-out happens on the assembling goroutine only, so a plain int is
// safe.
type cellScope struct {
	exp string
	seq int
}

// Scoped returns a copy of o bound to the named experiment, enabling
// cached cell lookups for the duration of one generator invocation.
// RunInstrumented applies it automatically; call it directly when
// invoking exp.Gen by hand (the determinism and golden tests do).
func (o Options) Scoped(exp string) Options {
	o.scope = &cellScope{exp: exp}
	return o
}

// cellScopeFor hands cells/cellGrid the cache and the scope string of
// the next fan-out, or (nil, "") when caching is off. The scope folds
// in everything that shapes cell meaning besides the index: experiment
// name, fan-out sequence, quick flag, seed, and cell count. The code
// version is folded in by the cache itself.
func (o Options) cellScopeFor(n int) (runner.CellCache, string) {
	if o.Cache == nil || o.scope == nil {
		return nil, ""
	}
	seq := o.scope.seq
	o.scope.seq++
	return o.Cache, fmt.Sprintf("%s#%d|quick=%t|seed=%d|n=%d", o.scope.exp, seq, o.Quick, o.seed(), n)
}

// cellMap evaluates fn(0..n-1) as n independent cells through the pool,
// consulting the result cache first when one is bound. Every generator
// fans out through this (or cellGrid) so `armbar -cache` accelerates
// the whole registry uniformly.
func cellMap[T any](o Options, n int, fn func(i int) T) []T {
	cc, scope := o.cellScopeFor(n)
	return runner.MapCached(o.Pool, cc, scope, n, fn)
}

// cellGrid is cellMap over a rows × cols grid, the shape of most sweeps.
func cellGrid[T any](o Options, rows, cols int, fn func(r, c int) T) [][]T {
	cc, scope := o.cellScopeFor(rows * cols)
	return runner.GridCached(o.Pool, cc, scope, rows, cols, fn)
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// threads picks the client-thread count for lock experiments.
func (o Options) threads() int {
	if o.Quick {
		return 12
	}
	return 24
}

// trim cuts a sweep down in quick mode (first, middle, last points).
func trim[T any](o Options, xs []T) []T {
	if !o.Quick || len(xs) <= 3 {
		return xs
	}
	return []T{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

// kunpeng bindings used throughout.
func kunpengSame() (*platform.Platform, [2]topo.CoreID) {
	p := platform.Kunpeng916()
	n0 := p.Sys.NodeCores(0)
	return p, [2]topo.CoreID{n0[0], n0[4]}
}

func kunpengCross() (*platform.Platform, [2]topo.CoreID) {
	p := platform.Kunpeng916()
	return p, [2]topo.CoreID{p.Sys.NodeCores(0)[0], p.Sys.NodeCores(1)[0]}
}

// pcBindings are the five Figure-6 configurations.
type pcBinding struct {
	Label      string
	Plat       *platform.Platform
	Prod, Cons topo.CoreID
}

func pcBindings() []pcBinding {
	kpS, sameCores := kunpengSame()
	kpC, crossCores := kunpengCross()
	k960 := platform.Kirin960()
	k970 := platform.Kirin970()
	rpi := platform.RaspberryPi4()
	big960 := k960.Sys.CoresOfClass(topo.Big)
	big970 := k970.Sys.CoresOfClass(topo.Big)
	return []pcBinding{
		{"Kunpeng916 Same Node", kpS, sameCores[0], sameCores[1]},
		{"Kunpeng916 Cross Nodes", kpC, crossCores[0], crossCores[1]},
		{"Kirin960", k960, big960[0], big960[1]},
		{"Kirin970", k970, big970[0], big970[1]},
		{"Raspberry Pi 4", rpi, 0, 1},
	}
}

// Table1 reproduces the WMM-vs-TSO message-passing behaviors.
func Table1(o Options) *report.Table {
	runs := o.scale(2000, 300)
	t := report.New("Table 1: message passing under TSO vs WMM",
		"Model", "Outcome local=23", "Outcome local!=23", "Anomaly")
	p := platform.Kunpeng916()
	test := litmus.MessagePassing(isa.None, isa.None)
	modes := []sim.Mode{sim.TSO, sim.WMM}
	results := cellMap(o, len(modes), func(i int) *litmus.Result {
		return litmus.Run(p, modes[i], test, runs, o.seed())
	})
	for i, mode := range modes {
		res := results[i]
		bad := res.Count["local=0"]
		verdict := "forbidden"
		if bad > 0 {
			verdict = "ALLOWED"
		}
		t.Row(mode.String(), res.Count["local=23"], bad, verdict)
	}
	t.Note = "thread1: data=23; flag=DONE / thread2: spin(flag); local=data — no barriers"
	return t
}

// Table2 lists the platform models.
func Table2(Options) *report.Table {
	t := report.New("Table 2: target platforms", "Name", "Architecture", "Cores",
		"Freq (GHz)", "Interconnect", "NUMA nodes")
	for _, p := range platform.All() {
		t.Row(p.Name, p.Arch, p.Sys.NumCores(), p.Cost.FreqGHz, p.Interconnect, p.Sys.NumNodes())
	}
	return t
}

// Table3 prints the suggestion matrix.
func Table3(Options) *report.Table {
	t := report.New("Table 3: order-preserving suggestions", "From \\ To",
		"Load", "Loads", "Store", "Stores", "Any")
	froms := []isa.Access{isa.Load, isa.Loads, isa.Store, isa.Stores, isa.Any}
	tos := []isa.Access{isa.Load, isa.Loads, isa.Store, isa.Stores, isa.Any}
	for _, f := range froms {
		cells := make([]any, 0, len(tos)+1)
		cells = append(cells, f.String())
		for _, to := range tos {
			s := isa.Suggest(f, to)
			cells = append(cells, s.Preferred[0].String())
		}
		t.Row(cells...)
	}
	t.Note = "cheapest approach per cell; dependencies listed first where applicable (paper Table 3)"
	return t
}

// Fig2 is the intrinsic-overhead study: one table per platform. Cells
// span every (binding, variant, nop-count) triple so the whole figure
// fans out at once.
func Fig2(o Options) []*report.Table {
	iters := o.scale(1500, 300)
	var bindings []pcBinding
	for _, b := range pcBindings() {
		if b.Label == "Kunpeng916 Cross Nodes" {
			continue // the paper's Fig 2 uses one binding per platform
		}
		bindings = append(bindings, b)
	}
	nops := []int{10, 30, 50}
	variants := absmodel.Figure2Variants()
	nV, nN := len(variants), len(nops)
	vals := cellMap(o, len(bindings)*nV*nN, func(k int) float64 {
		b := bindings[k/(nV*nN)]
		v := variants[k/nN%nV]
		n := nops[k%nN]
		return absmodel.Run(absmodel.Config{
			Plat: b.Plat, Cores: [2]topo.CoreID{b.Prod, b.Cons},
			Pattern: absmodel.NoMem, Variant: v, Nops: n,
			Iters: iters, Seed: o.seed(),
		}).Throughput()
	})
	var out []*report.Table
	for bi, b := range bindings {
		t := report.New(fmt.Sprintf("Figure 2: intrinsic overhead — %s (10^6 loops/s)", b.Label),
			append([]string{"Barrier"}, nopCols(nops)...)...)
		for vi, v := range variants {
			cells := []any{v.Name()}
			for ni := range nops {
				cells = append(cells, vals[(bi*nV+vi)*nN+ni]/1e6)
			}
			t.Row(cells...)
		}
		out = append(out, t)
	}
	return out
}

func nopCols(nops []int) []string {
	cols := make([]string, len(nops))
	for i, n := range nops {
		cols[i] = fmt.Sprintf("%d nops", n)
	}
	return cols
}

// fig3Binding is one subfigure of Figure 3.
type fig3Binding struct {
	Label string
	Plat  *platform.Platform
	Cores [2]topo.CoreID
	Nops  []int
}

func fig3Bindings() []fig3Binding {
	kpS, same := kunpengSame()
	kpC, cross := kunpengCross()
	k960 := platform.Kirin960()
	k970 := platform.Kirin970()
	rpi := platform.RaspberryPi4()
	b960 := k960.Sys.CoresOfClass(topo.Big)
	b970 := k970.Sys.CoresOfClass(topo.Big)
	return []fig3Binding{
		{"(a) Kunpeng916 same node", kpS, same, []int{50, 150, 500}},
		{"(b) Kunpeng916 cross nodes", kpC, cross, []int{300, 500, 700}},
		{"(c) Kirin960 big cluster", k960, [2]topo.CoreID{b960[0], b960[1]}, []int{10, 30, 60}},
		{"(d) Kirin970 big cluster", k970, [2]topo.CoreID{b970[0], b970[1]}, []int{10, 30, 60}},
		{"(e) Raspberry Pi 4", rpi, [2]topo.CoreID{0, 1}, []int{10, 30, 60}},
	}
}

// Fig3 is the two-store model under every binding.
func Fig3(o Options) []*report.Table {
	iters := o.scale(1500, 300)
	bindings := fig3Bindings()
	variants := absmodel.Figure3Variants()
	nV := len(variants)
	nN := len(bindings[0].Nops) // all subfigures sweep three paddings
	vals := cellMap(o, len(bindings)*nV*nN, func(k int) float64 {
		b := bindings[k/(nV*nN)]
		v := variants[k/nN%nV]
		n := b.Nops[k%nN]
		return absmodel.Run(absmodel.Config{
			Plat: b.Plat, Cores: b.Cores, Pattern: absmodel.TwoStores,
			Variant: v, Nops: n, Iters: iters, Seed: o.seed(),
		}).Throughput()
	})
	var out []*report.Table
	for bi, b := range bindings {
		t := report.New(fmt.Sprintf("Figure 3%s: two stores (10^6 loops/s)", b.Label),
			append([]string{"Barrier"}, nopCols(b.Nops)...)...)
		for vi, v := range variants {
			cells := []any{v.Name()}
			for ni := range b.Nops {
				cells = append(cells, vals[(bi*nV+vi)*nN+ni]/1e6)
			}
			t.Row(cells...)
		}
		out = append(out, t)
	}
	return out
}

// Fig4 locates the tipping point and verifies the ½ ratio.
func Fig4(o Options) *report.Table {
	t := report.New("Figure 4: tipping point (DMB full-1 ≈ ½ × DMB full-2)",
		"Binding", "Tipping nops", "full-1 : full-2")
	type bind struct {
		label string
		plat  *platform.Platform
		cores [2]topo.CoreID
	}
	kpS, same := kunpengSame()
	kpC, cross := kunpengCross()
	binds := []bind{
		{"Kunpeng916 same node", kpS, same},
		{"Kunpeng916 cross nodes", kpC, cross},
	}
	// Exported fields: cell results round-trip through the gob-encoded
	// result cache.
	type tip struct {
		Nops  int
		Ratio float64
	}
	tips := cellMap(o, len(binds), func(i int) tip {
		n, r := absmodel.TippingPoint(binds[i].plat, binds[i].cores, 0.95, o.seed())
		return tip{n, r}
	})
	for i, b := range binds {
		t.Row(b.label, tips[i].Nops, tips[i].Ratio)
	}
	t.Note = "paper: ratio 17.90/31.01 ≈ 3.38/6.54 ≈ 1/2 at 150 (same node) / 700 (cross) nops"
	return t
}

// Fig5 is the load+store model cross-node on the server.
func Fig5(o Options) *report.Table {
	iters := o.scale(1500, 300)
	p, cross := kunpengCross()
	nops := []int{300, 500}
	variants := absmodel.Figure5Variants()
	t := report.New("Figure 5: load+store, Kunpeng916 cross nodes (10^6 loops/s)",
		append([]string{"Approach"}, nopCols(nops)...)...)
	vals := cellGrid(o, len(variants), len(nops), func(r, c int) float64 {
		return absmodel.Run(absmodel.Config{
			Plat: p, Cores: cross, Pattern: absmodel.LoadStore,
			Variant: variants[r], Nops: nops[c], Iters: iters, Seed: o.seed(),
		}).Throughput()
	})
	for vi, v := range variants {
		cells := []any{v.Name()}
		for ni := range nops {
			cells = append(cells, vals[vi][ni]/1e6)
		}
		t.Row(cells...)
	}
	return t
}

// Fig6a is the producer-consumer barrier-combo matrix, normalized to
// DMB full - DMB full per binding.
func Fig6a(o Options) *report.Table {
	msgs := o.scale(2000, 400)
	combos := pc.Figure6aCombos()
	cols := []string{"Binding"}
	for _, c := range combos[:6] {
		cols = append(cols, c.Name())
	}
	cols = append(cols, "Ideal")
	t := report.New("Figure 6a: producer-consumer normalized throughput", cols...)
	bindings := pcBindings()
	vals := cellGrid(o, len(bindings), len(combos), func(r, c int) float64 {
		b := bindings[r]
		return pc.Run(pc.Config{Plat: b.Plat, Producer: b.Prod, Consumer: b.Cons,
			Mode: pc.Classic, Combo: combos[c], Messages: msgs, Seed: o.seed()}).Throughput()
	})
	for bi, b := range bindings {
		base := vals[bi][0]
		cells := []any{b.Label}
		for ci := range combos {
			cells = append(cells, vals[bi][ci]/base)
		}
		t.Row(cells...)
	}
	return t
}

// Fig6b compares Pilot with the best combo, Theoretical and Ideal.
func Fig6b(o Options) *report.Table {
	msgs := o.scale(2000, 400)
	t := report.New("Figure 6b: Pilot in producer-consumer (10^6 msgs/s)",
		"Binding", "DMB ld - DMB st", "Theoretical", "Pilot", "Ideal", "Pilot gain")
	best := pc.Combo{Avail: isa.DMBLd, Publish: isa.DMBSt}
	bindings := pcBindings()
	// Columns: 0 = best combo, 1 = theoretical, 2 = pilot, 3 = ideal.
	vals := cellGrid(o, len(bindings), 4, func(r, c int) float64 {
		b := bindings[r]
		cfg := pc.Config{Plat: b.Plat, Producer: b.Prod, Consumer: b.Cons,
			Messages: msgs, Seed: o.seed()}
		switch c {
		case 0:
			cfg.Mode, cfg.Combo = pc.Classic, best
		case 1:
			cfg.Mode, cfg.Combo = pc.Theoretical, pc.Combo{Avail: isa.DMBLd}
		case 2:
			cfg.Mode = pc.Pilot
		default:
			cfg.Mode = pc.Classic
		}
		return pc.Run(cfg).Throughput()
	})
	for bi, b := range bindings {
		orig, theo, pil, ideal := vals[bi][0], vals[bi][1], vals[bi][2], vals[bi][3]
		t.Row(b.Label, orig/1e6, theo/1e6, pil/1e6, ideal/1e6,
			fmt.Sprintf("+%.0f%%", (pil/orig-1)*100))
	}
	t.Note = "paper gains: +62% / +363% / +75% / +74% / +24%"
	return t
}

// Fig6c sweeps the batched message size.
func Fig6c(o Options) *report.Table {
	msgs := o.scale(1200, 300)
	sizes := []int{1, 2, 4, 8, 16, 32}
	cols := []string{"Binding"}
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("%dx8B", s))
	}
	t := report.New("Figure 6c: Pilot speedup vs batched message size", cols...)
	best := pc.Combo{Avail: isa.DMBLd, Publish: isa.DMBSt}
	bindings := pcBindings()
	nS := len(sizes)
	// Cell layout: (binding × size) rows, columns 0 = classic best
	// combo, 1 = Pilot.
	vals := cellGrid(o, len(bindings)*nS, 2, func(r, c int) float64 {
		b := bindings[r/nS]
		s := sizes[r%nS]
		cfg := pc.Config{Plat: b.Plat, Producer: b.Prod, Consumer: b.Cons,
			Messages: msgs, Batch: s, Seed: o.seed()}
		if c == 0 {
			cfg.Mode, cfg.Combo = pc.Classic, best
		} else {
			cfg.Mode = pc.Pilot
		}
		return pc.Run(cfg).Throughput()
	})
	for bi, b := range bindings {
		cells := []any{b.Label}
		for si := range sizes {
			row := vals[bi*nS+si]
			cells = append(cells, row[1]/row[0])
		}
		t.Row(cells...)
	}
	t.Note = "speedup of Pilot over DMB ld - DMB st; declines as slices share one barrier"
	return t
}

// Fig6d is the dedup pipeline comparison.
func Fig6d(o Options) *report.Table {
	t := report.New("Figure 6d: dedup normalized compress speed",
		"Workload", "Q", "RB", "RB-P")
	workloads := dedup.Workloads()
	if o.Quick {
		for i := range workloads {
			workloads[i].Chunks /= 4
		}
	}
	buffers := []dedup.Buffer{dedup.Q, dedup.RB, dedup.RBP}
	vals := cellGrid(o, len(workloads), len(buffers), func(r, c int) float64 {
		return dedup.Run(dedup.Config{Plat: platform.Kunpeng916(), Buffer: buffers[c],
			W: workloads[r], Seed: o.seed()}).Throughput()
	})
	for wi, w := range workloads {
		q, rb, rbp := vals[wi][0], vals[wi][1], vals[wi][2]
		t.Row(w.Name, 1.0, rb/q, rbp/q)
	}
	t.Note = "paper: RB sometimes below Q; RB-P ≈ +10% over Q"
	return t
}

// Fig7a is the ticket-lock unlock-barrier study.
func Fig7a(o Options) *report.Table {
	ops := o.scale(300, 80)
	t := report.New("Figure 7a: ticket lock, unlock barrier (normalized)",
		"Platform", "Globals", "Normal", "Removed")
	plats := platform.All()
	globals := []int{0, 1, 2}
	nG := len(globals)
	// Cell layout: (platform × globals) rows, columns 0 = normal
	// unlock barrier, 1 = removed (dependency).
	vals := cellGrid(o, len(plats)*nG, 2, func(r, c int) float64 {
		p := plats[r/nG]
		threads := 12
		if p.Sys.NumCores() <= 8 {
			threads = 4
		}
		bar := isa.DMBSt
		if c == 1 {
			bar = isa.AddrDep
		}
		return locks.Bench(locks.BenchConfig{Plat: clonePlat(p), Kind: locks.Ticket,
			Threads: threads, Ops: ops, Globals: globals[r%nG],
			UnlockBarrier: bar, Seed: o.seed()}).Throughput()
	})
	for pi, p := range plats {
		for gi, g := range globals {
			row := vals[pi*nG+gi]
			t.Row(p.Name, g, 1.0, row[1]/row[0])
		}
	}
	t.Note = "Removed = publication barrier replaced by a dependency; paper sees up to +23% at 2 globals"
	return t
}

// clonePlat returns a fresh platform value (Bench mutates nothing, but
// machines must not share state).
func clonePlat(p *platform.Platform) *platform.Platform {
	return platform.ByName(p.Name)
}

// Fig7b is the delegation-lock barrier-combo study.
func Fig7b(o Options) *report.Table {
	ops := o.scale(300, 60)
	combos := []struct {
		label string
		x, y  isa.Barrier
		noY   bool
	}{
		{"DMB full-DMB st", isa.DMBFull, isa.DMBSt, false},
		{"DMB ld-DMB st", isa.DMBLd, isa.DMBSt, false},
		{"LDAR-DMB st", isa.LDAR, isa.DMBSt, false},
		{"CTRL+ISB-DMB st", isa.CtrlISB, isa.DMBSt, false},
		{"ADDR-DMB st", isa.AddrDep, isa.DMBSt, false},
		{"LDAR-No Barrier", isa.LDAR, isa.AddrDep, true},
	}
	t := report.New("Figure 7b: delegation lock barrier combos (normalized, FFWD, 1 global counter)",
		"Combo", "FFWD", "DSMSynch")
	kinds := []locks.Kind{locks.FFWD, locks.DSMSynch}
	vals := cellGrid(o, len(combos), len(kinds), func(r, c int) float64 {
		return locks.Bench(locks.BenchConfig{Plat: platform.Kunpeng916(), Kind: kinds[c],
			Threads: o.threads(), Ops: ops, ServeBarriers: [2]isa.Barrier{combos[r].x, combos[r].y},
			Seed: o.seed()}).Throughput()
	})
	baseF, baseD := vals[0][0], vals[0][1]
	for i, c := range combos {
		t.Row(c.label, vals[i][0]/baseF, vals[i][1]/baseD)
	}
	t.Note = "paper: weak X ≈ +20%; removing Y ≈ +22% more (close to Ideal); FFWD's batching softens both"
	return t
}

// Fig7c sweeps contention for the five lock variants.
func Fig7c(o Options) *report.Table {
	ops := o.scale(150, 40)
	intervals := trim(o, []int{0, 128, 1280, 12800, 128000})
	cols := []string{"Lock"}
	for _, iv := range intervals {
		cols = append(cols, fmt.Sprintf("%d nops", iv))
	}
	t := report.New("Figure 7c: lock throughput vs contention (10^6 CS/s)", cols...)
	kinds := []locks.Kind{locks.Ticket, locks.DSMSynch, locks.DSMSynchPilot,
		locks.FFWD, locks.FFWDPilot}
	vals := cellGrid(o, len(kinds), len(intervals), func(r, c int) float64 {
		return locks.Bench(locks.BenchConfig{Plat: platform.Kunpeng916(), Kind: kinds[r],
			Threads: o.threads(), Ops: ops, Interval: intervals[c], Seed: o.seed()}).Throughput()
	})
	for ki, k := range kinds {
		cells := []any{k.String()}
		for ii := range intervals {
			cells = append(cells, vals[ki][ii]/1e6)
		}
		t.Row(cells...)
	}
	t.Note = "paper: +56% (DSynch-P) and +32% (FFWD-P) at high contention; parity at low"
	return t
}

// Fig8a compares locks on queue and stack.
func Fig8a(o Options) *report.Table {
	rounds := o.scale(60, 20)
	t := report.New("Figure 8a: queue & stack (10^6 ops/s)",
		"Structure", "Ticket", "DSynch", "DSynch-P", "FFWD", "FFWD-P")
	structs := []ds.Structure{ds.Queue, ds.Stack}
	kinds := []locks.Kind{locks.Ticket, locks.DSMSynch, locks.DSMSynchPilot,
		locks.FFWD, locks.FFWDPilot}
	vals := cellGrid(o, len(structs), len(kinds), func(r, c int) float64 {
		return ds.Run(ds.Config{Plat: platform.Kunpeng916(), Kind: kinds[c], Struct: structs[r],
			Threads: o.threads(), Rounds: rounds, Seed: o.seed()}).Throughput()
	})
	for si, s := range structs {
		cells := []any{s.String()}
		for ki := range kinds {
			cells = append(cells, vals[si][ki]/1e6)
		}
		t.Row(cells...)
	}
	t.Note = "paper: Pilot +20/26% (queue), +30/16% (stack) for DSynch/FFWD"
	return t
}

// Fig8b sweeps the sorted-list preload.
func Fig8b(o Options) *report.Table {
	rounds := o.scale(10, 6)
	preloads := []int{0, 50, 100, 200, 300}
	if o.Quick {
		preloads = []int{0, 50, 300}
	}
	cols := []string{"Lock"}
	for _, p := range preloads {
		cols = append(cols, fmt.Sprintf("%d", p))
	}
	t := report.New("Figure 8b: sorted linked list vs preload (10^6 ops/s)", cols...)
	kinds := []locks.Kind{locks.Ticket, locks.DSMSynch, locks.DSMSynchPilot,
		locks.FFWD, locks.FFWDPilot}
	vals := cellGrid(o, len(kinds), len(preloads), func(r, c int) float64 {
		return ds.Run(ds.Config{Plat: platform.Kunpeng916(), Kind: kinds[r], Struct: ds.List,
			Threads: o.threads() / 2, Rounds: rounds, Preload: preloads[c], Seed: o.seed()}).Throughput()
	})
	for ki, k := range kinds {
		cells := []any{k.String()}
		for pi := range preloads {
			cells = append(cells, vals[ki][pi]/1e6)
		}
		t.Row(cells...)
	}
	t.Note = "paper: max +55%/+25% (DSynch/FFWD) around 50 preloaded members"
	return t
}

// Fig8c sweeps the hash-table bucket count.
func Fig8c(o Options) *report.Table {
	rounds := o.scale(8, 5)
	buckets := []int{2, 8, 32, 128, 512}
	if o.Quick {
		buckets = []int{2, 32, 256}
	}
	cols := []string{"Lock"}
	for _, b := range buckets {
		cols = append(cols, fmt.Sprintf("%d", b))
	}
	t := report.New("Figure 8c: hash table vs buckets (10^6 ops/s)", cols...)
	kinds := []locks.Kind{locks.Ticket, locks.DSMSynch, locks.DSMSynchPilot,
		locks.FFWD, locks.FFWDPilot}
	vals := cellGrid(o, len(kinds), len(buckets), func(r, c int) float64 {
		return ds.Run(ds.Config{Plat: platform.Kunpeng916(), Kind: kinds[r], Struct: ds.HashTable,
			Threads: o.threads() / 2, Rounds: rounds, Preload: 512, Buckets: buckets[c],
			Seed: o.seed()}).Throughput()
	})
	for ki, k := range kinds {
		cells := []any{k.String()}
		for bi := range buckets {
			cells = append(cells, vals[ki][bi]/1e6)
		}
		t.Row(cells...)
	}
	t.Note = "paper: max +61% (DSynch, 32 buckets), +24% (FFWD, 16); gain fades with more buckets"
	return t
}

// InPlaceLocks is an extension beyond the paper's figures: the
// in-place lock family (TAS, ticket, MCS, CLH) plus the combining
// locks under one contention sweep, all on the server model. It shows
// where each design's barrier pattern bites.
func InPlaceLocks(o Options) *report.Table {
	ops := o.scale(120, 40)
	intervals := trim(o, []int{0, 1280, 128000})
	cols := []string{"Lock"}
	for _, iv := range intervals {
		cols = append(cols, fmt.Sprintf("%d nops", iv))
	}
	t := report.New("Extension: lock families vs contention (10^6 CS/s, Kunpeng916)", cols...)
	kinds := []locks.Kind{locks.TAS, locks.Ticket, locks.MCS, locks.CLH,
		locks.FC, locks.FCPilot, locks.DSMSynch, locks.DSMSynchPilot}
	vals := cellGrid(o, len(kinds), len(intervals), func(r, c int) float64 {
		return locks.Bench(locks.BenchConfig{Plat: platform.Kunpeng916(), Kind: kinds[r],
			Threads: o.threads(), Ops: ops, Interval: intervals[c], Seed: o.seed()}).Throughput()
	})
	for ki, k := range kinds {
		cells := []any{k.String()}
		for ii := range intervals {
			cells = append(cells, vals[ki][ii]/1e6)
		}
		t.Row(cells...)
	}
	t.Note = "queue locks spin locally; combining locks win at high contention; Pilot lifts the combiners further"
	return t
}

// TSOPorting is the porting-cost extension the paper's introduction
// motivates: the same producer-consumer program on an x86-style TSO
// machine needs no explicit barriers; on the weakly-ordered machine it
// needs the Figure-6a barrier pairs — unless Pilot removes them.
func TSOPorting(o Options) *report.Table {
	msgs := o.scale(2000, 400)
	t := report.New("Extension: porting cost, TSO (x86) vs WMM (ARM) producer-consumer (10^6 msgs/s)",
		"Binding", "TSO no barriers", "WMM best combo", "WMM Pilot", "barrier tax", "after Pilot")
	best := pc.Combo{Avail: isa.DMBLd, Publish: isa.DMBSt}
	bindings := pcBindings()
	// Columns: 0 = TSO no barriers, 1 = WMM best combo, 2 = WMM Pilot.
	vals := cellGrid(o, len(bindings), 3, func(r, c int) float64 {
		b := bindings[r]
		cfg := pc.Config{Plat: b.Plat, Producer: b.Prod, Consumer: b.Cons,
			Messages: msgs, Seed: o.seed()}
		switch c {
		case 0:
			cfg.Mode, cfg.TSO = pc.Classic, true
		case 1:
			cfg.Mode, cfg.Combo = pc.Classic, best
		default:
			cfg.Mode = pc.Pilot
		}
		return pc.Run(cfg).Throughput()
	})
	for bi, b := range bindings {
		tso, wmm, pil := vals[bi][0], vals[bi][1], vals[bi][2]
		t.Row(b.Label, tso/1e6, wmm/1e6, pil/1e6,
			fmt.Sprintf("%.0f%%", (tso/wmm-1)*100),
			fmt.Sprintf("%.0f%%", (tso/pil-1)*100))
	}
	t.Note = "the WMM 'barrier tax' a port pays, and how much of it Pilot refunds"
	return t
}

// MPMCFanIn is the §4.1 extension: multiple producers feeding one
// consumer through a lock-protected shared ring versus per-producer
// Pilot channels.
func MPMCFanIn(o Options) *report.Table {
	msgs := o.scale(400, 120)
	t := report.New("Extension: multi-producer fan-in (10^6 msgs/s, Kunpeng916)",
		"Producers", "Locked ring", "Pilot fan-in", "speedup")
	producers := trim(o, []int{2, 4, 8, 16})
	modes := []pc.MPMCMode{pc.LockedRing, pc.PilotFanIn}
	vals := cellGrid(o, len(producers), len(modes), func(r, c int) float64 {
		return pc.RunMPMC(pc.MPMCConfig{Plat: platform.Kunpeng916(), Producers: producers[r],
			Messages: msgs, Mode: modes[c], Seed: o.seed()}).Throughput()
	})
	for ni, n := range producers {
		lr, pf := vals[ni][0], vals[ni][1]
		t.Row(n, lr/1e6, pf/1e6, fmt.Sprintf("%.2fx", pf/lr))
	}
	t.Note = "per-pair Pilot channels avoid both the lock and the publication barriers"
	return t
}

// SeqlockVsPilot is the publication extension: a single writer
// republishing an N-word record through a classic seqlock (two DMB st
// per update) versus per-slice Pilot (no barriers), same-node and
// cross-node on the server model.
func SeqlockVsPilot(o Options) *report.Table {
	updates := o.scale(600, 200)
	t := report.New("Extension: seqlock vs Pilot publication (snapshots/s, 10^6)",
		"Binding", "Words", "Seqlock", "Pilot", "ratio")
	kp := platform.Kunpeng916()
	bindings := []struct {
		label          string
		writer, reader topo.CoreID
	}{
		{"same node", kp.Sys.NodeCores(0)[0], kp.Sys.NodeCores(0)[4]},
		{"cross nodes", kp.Sys.NodeCores(0)[0], kp.Sys.NodeCores(1)[0]},
	}
	words := trim(o, []int{1, 4, 8})
	nW := len(words)
	modes := []pc.PubMode{pc.Seqlock, pc.PilotBatch}
	vals := cellGrid(o, len(bindings)*nW, len(modes), func(r, c int) float64 {
		b := bindings[r/nW]
		return pc.RunPub(pc.PubConfig{Plat: platform.Kunpeng916(), Writer: b.writer,
			Reader: b.reader, Mode: modes[c], Words: words[r%nW], Updates: updates,
			Gap: 3000, Seed: o.seed()}).SnapshotRate()
	})
	for bi, b := range bindings {
		for wi, w := range words {
			row := vals[bi*nW+wi]
			t.Row(b.label, w, row[0]/1e6, row[1]/1e6, fmt.Sprintf("%.2fx", row[1]/row[0]))
		}
	}
	t.Note = "torn-free both ways; the seqlock's fenced write window also stalls readers into retries, which Pilot avoids entirely"
	return t
}

// A64CrossCheck runs the two-store abstracted model both as Run's
// micro-op program (the "closure" column, named for the original Go
// closure encoding) and as the paper's verbatim Algorithm-1 assembly
// (internal/a64) and reports the agreement — a self-validation table.
func A64CrossCheck(o Options) *report.Table {
	iters := o.scale(1200, 400)
	p, cores := kunpengSame()
	t := report.New("Validation: Algorithm-1 assembly vs Go-closure model (Mloops/s)",
		"Variant", "closure", "a64", "ratio")
	variants := []absmodel.Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: absmodel.Loc1},
		{Barrier: isa.DMBFull, Loc: absmodel.Loc2},
		{Barrier: isa.DMBSt, Loc: absmodel.Loc1},
		{Barrier: isa.DSBFull, Loc: absmodel.Loc1},
		{Barrier: isa.STLR},
	}
	// Exported fields (and the error flattened to its string) so cell
	// results round-trip through the gob-encoded result cache.
	type outcome struct {
		Thr float64
		Err string
	}
	// Columns: 0 = Go closure, 1 = a64 assembly.
	vals := cellGrid(o, len(variants), 2, func(r, c int) outcome {
		cfg := absmodel.Config{Plat: p, Cores: cores, Pattern: absmodel.TwoStores,
			Variant: variants[r], Nops: 60, Iters: iters, Seed: o.seed()}
		if c == 0 {
			return outcome{Thr: absmodel.Run(cfg).Throughput()}
		}
		res, err := absmodel.RunA64(cfg)
		if err != nil {
			return outcome{Err: err.Error()}
		}
		return outcome{Thr: res.Throughput()}
	})
	for vi, v := range variants {
		cl, asm := vals[vi][0].Thr, vals[vi][1]
		if asm.Err != "" {
			t.Row(v.Name(), cl/1e6, "error", asm.Err)
			continue
		}
		t.Row(v.Name(), cl/1e6, asm.Thr/1e6, fmt.Sprintf("%.2f", asm.Thr/cl))
	}
	t.Note = "the a64 path executes mov/add/cmp per loop that the closure charges as plain nops; ratios near 1 validate both encodings"
	return t
}

// Fig8d is the floorplan benchmark.
func Fig8d(o Options) *report.Table {
	t := report.New("Figure 8d: BOTS floorplan normalized execution time",
		"Input", "Ticket", "DSynch", "DSynch-P", "optimum found")
	inputs := floorplan.Inputs()
	if o.Quick && len(inputs) > 1 {
		inputs = inputs[:1]
	}
	kinds := []locks.Kind{locks.Ticket, locks.DSMSynch, locks.DSMSynchPilot}
	// The table only consumes cycles and validity, so the cell value is
	// that pair rather than the full (cache-unfriendly) floorplan.Result.
	type fpCell struct {
		Cycles float64
		Valid  bool
	}
	vals := cellGrid(o, len(inputs), len(kinds), func(r, c int) fpCell {
		res := floorplan.Run(floorplan.Config{Plat: platform.Kunpeng916(),
			Kind: kinds[c], In: inputs[r], Threads: 8, Seed: o.seed()})
		return fpCell{Cycles: res.Cycles, Valid: res.Valid}
	})
	for ii, in := range inputs {
		tick, dsy, dsp := vals[ii][0], vals[ii][1], vals[ii][2]
		okAll := tick.Valid && dsy.Valid && dsp.Valid
		t.Row(in.Name, tick.Cycles/dsy.Cycles, 1.0, dsp.Cycles/dsy.Cycles, okAll)
	}
	t.Note = "execution time relative to DSynch (lower is better); paper: Pilot saves ≤ ~4%"
	return t
}
