// Package barrier is the many-core barrier-algorithm zoo: five
// software barrier designs expressed as branch-free micro-op programs
// and swept across scale-out core counts, reproducing the scaling
// shapes of the 1024-core RISC-V barrier study (Bertuletti et al., see
// PAPERS.md) on the simulator's ARM cost model.
//
// Every algorithm is formulated with monotone epoch counters instead
// of data-dependent branches ("if I am the last arriver..."), because
// the compiled engine discards atomic results: a thread's whole
// participation — who it signals, what it waits for, at which epoch —
// is fixed by (algorithm, thread id, core count, round), so each round
// lowers to straight-line FetchAdd/Store ops plus SpinGE waits. SpinGE
// (wait until value >= epoch) is the load-bearing primitive: a counter
// or epoch flag may race past the target between polls of a slow
// spinner, so an exact-match spin could hang where >= never does.
//
// Both engines run the same per-thread programs through
// sim.SpawnProgram: the compiled engine executes them natively, the
// interpreted engine walks the identical micro-ops through the per-op
// Thread methods (sim.Walk), so differential tests can hold the two
// equal cycle for cycle.
package barrier

import (
	"fmt"

	"armbar/internal/mesi"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Algo selects a barrier algorithm.
type Algo int

const (
	// Central is the naive shared-counter barrier: every thread
	// fetch-adds one arrival counter and spins on that same line until
	// it reaches n*(round+1). All spinners hammer the line every
	// arrival invalidates — the worst-scaling baseline.
	Central Algo = iota
	// SenseReversing is the classic two-phase barrier in epoch form:
	// arrivals fetch-add a counter, a master thread waits for the full
	// count and publishes the epoch to a separate release flag, and
	// everyone else spins locally on that flag. One broadcast
	// invalidation per round instead of n.
	SenseReversing
	// CombiningTree combines arrivals in radix-4 groups aligned to
	// clusters (level-0 groups never cross a cluster boundary in the
	// scale-out presets), propagates a single representative up each
	// level, and broadcasts the release down the same tree.
	CombiningTree
	// Dissemination is the log2(n)-round pairwise-signal barrier: in
	// round k thread i signals (i+2^k) mod n and waits on a flag
	// written by (i-2^k) mod n, each (round, writer) flag on its own
	// cache line. No single hot line, latency O(log n).
	Dissemination
	// Pairwise is the cache-line-padded linear signal chain
	// (SNIPPETS.md snippets 2-3): arrivals ripple 0 -> n-1 through
	// per-thread padded flags, the release ripples back n-1 -> 0. Every
	// communication is one-reader/one-writer on its own line — perfect
	// locality, O(n) latency.
	Pairwise

	numAlgos
)

var algoNames = [numAlgos]string{
	"central", "sense-rev", "comb-tree", "dissem", "pairwise",
}

func (a Algo) String() string {
	if a >= 0 && int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Algos returns all algorithms in presentation order.
func Algos() []Algo {
	return []Algo{Central, SenseReversing, CombiningTree, Dissemination, Pairwise}
}

// ByName resolves an algorithm name (the String values).
func ByName(name string) (Algo, error) {
	for _, a := range Algos() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("barrier: unknown algorithm %q", name)
}

// padFor sizes the poll cadence of every spin wait, in nops. Real
// many-core barriers back their polls off as the machine grows (a
// tight poll loop at 1024 cores is itself a coherence storm), so the
// pad scales with the thread count: n/2 nops, clamped to [32, 512] —
// roughly 11 to 171 cycles between polls at issue width 3, against
// signal latencies of one to a few hundred cycles. The same cadence
// applies to every algorithm so the figure compares fan-in structure,
// not polling tuning.
func padFor(n int) int {
	p := n / 2
	if p < 32 {
		p = 32
	}
	if p > 512 {
		p = 512
	}
	return p
}

// treeRadix is the combining-tree fan-in. The scale-out presets put at
// least four cores in a cluster, so level-0 groups are cluster-local.
const treeRadix = 4

// Config parameterizes one barrier-zoo run.
type Config struct {
	Plat    *platform.Platform
	Threads int // participants, pinned to cores 0..Threads-1
	Rounds  int // barrier episodes (unrolled into the programs)
	Seed    int64
	Mode    sim.Mode
}

// Result is one run's outcome. All fields are exported so cellcache
// can gob-roundtrip it.
type Result struct {
	Cycles         float64 // final virtual time of the run
	CyclesPerRound float64
	MicrosPerRound float64
	Stats          sim.Stats
}

// Run executes rounds of the given barrier over cfg.Threads threads
// and reports the per-round cost.
func Run(a Algo, cfg Config) (*Result, error) {
	m, err := Spawn(a, cfg)
	if err != nil {
		return nil, err
	}
	cycles := m.Run()
	r := &Result{
		Cycles:         cycles,
		CyclesPerRound: cycles / float64(cfg.Rounds),
		Stats:          m.Stats(),
	}
	r.MicrosPerRound = m.Seconds(r.CyclesPerRound) * 1e6
	return r, nil
}

// Spawn builds the machine for one run — programs built, layout
// placed, every thread spawned — without running it.
// Run wraps it; benchmarks call it directly so program construction
// and thread startup stay outside the timed region.
func Spawn(a Algo, cfg Config) (*sim.Machine, error) {
	progs, err := Programs(a, cfg)
	if err != nil {
		return nil, err
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: cfg.Mode, Seed: cfg.Seed})
	// Reallocate the same addresses the program builder used: Alloc is
	// a deterministic bump allocator, so replaying the layout binds the
	// program's immediates to this machine.
	lay := layoutFor(a, cfg.Threads)
	lay.place(m)
	// Every participating core installs a copy of the lines it touches
	// in round one; reserving the full fan-out up front keeps that
	// first-install append growth out of the run itself, so the
	// BarrierScale benchmarks measure steady-state rounds at 0 B/op.
	for k := 0; k < lay.lines; k++ {
		m.Directory().Reserve(lay.base+uint64(k)<<mesi.LineShift, cfg.Threads)
	}
	for i, p := range progs {
		m.SpawnProgram(topo.CoreID(i), p)
	}
	return m, nil
}

// Programs builds the per-thread micro-op programs for one run without
// executing them (Run uses it; benchmarks build once and respawn).
func Programs(a Algo, cfg Config) ([]*prog.Program, error) {
	n := cfg.Threads
	if cfg.Plat == nil {
		return nil, fmt.Errorf("barrier: Config.Plat is required")
	}
	if n < 2 {
		return nil, fmt.Errorf("barrier: need at least 2 threads, got %d", n)
	}
	if n > cfg.Plat.Sys.NumCores() {
		return nil, fmt.Errorf("barrier: %d threads exceed the %d cores of %s",
			n, cfg.Plat.Sys.NumCores(), cfg.Plat.Name)
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("barrier: rounds must be positive, got %d", cfg.Rounds)
	}
	if a == CombiningTree && !isPow(n, treeRadix) {
		return nil, fmt.Errorf("barrier: combining tree needs a power-of-%d thread count, got %d", treeRadix, n)
	}
	lay := layoutFor(a, n)
	iw := cfg.Plat.Cost.IssueWidth
	progs := make([]*prog.Program, n)
	for i := 0; i < n; i++ {
		b := prog.NewBuilder(iw)
		for r := 0; r < cfg.Rounds; r++ {
			epoch := uint64(r + 1)
			switch a {
			case Central:
				emitCentral(b, lay, n, i, epoch)
			case SenseReversing:
				emitSense(b, lay, n, i, epoch)
			case CombiningTree:
				emitTree(b, lay, n, i, epoch)
			case Dissemination:
				emitDissem(b, lay, n, i, epoch)
			case Pairwise:
				emitPairwise(b, lay, n, i, epoch)
			default:
				return nil, fmt.Errorf("barrier: unknown algorithm %d", a)
			}
		}
		p, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("barrier: %s thread %d: %w", a, i, err)
		}
		progs[i] = p
	}
	return progs, nil
}

func isPow(n, base int) bool {
	for n > 1 {
		if n%base != 0 {
			return false
		}
		n /= base
	}
	return n == 1
}
