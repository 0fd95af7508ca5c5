package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"armbar/internal/cellcache"
	"armbar/internal/explore"
	"armbar/internal/figures"
	"armbar/internal/metrics"
	"armbar/internal/platform"
	"armbar/internal/report"
	"armbar/internal/runner"
)

const (
	// defaultSeed is armbar's default -seed. The first pass of every
	// run uses it, so every run checks its output against the digests
	// recorded in digests.json.
	defaultSeed = 42
	// fuzzCorpusSeed and fuzzRuns are those of the `make fencecheck`
	// fuzz batch. The corpus is fixed: explorer work varies ~2x between
	// corpus seeds, so a batch drawn from --seed would measure the seed
	// rather than the code.
	fuzzCorpusSeed = 42
	fuzzRuns       = 4
)

// workload is one input set of the benchmark. A pass regenerates the
// experiments cold into a fresh cache directory, runs the first fuzz
// shapes of the fixed fuzz batch, and then replays the experiments
// warm from the cache.
type workload struct {
	name string
	why  string
	exps []string
	fuzz int // shapes of the fuzz batch per pass; 0 = none
	// minPasses is how many passes a run makes even when --seconds has
	// elapsed; tracedPasses how many the traced phase makes. A
	// closure-threads pass takes ~16 s and varies ~10% from pass to
	// pass, so its median needs three; compiled-programs fits many
	// passes into --seconds, and five traced passes give ≥1000 cells,
	// the fewest a p99 can be reported from.
	minPasses, tracedPasses int
}

var workloads = []workload{
	{"closure-threads",
		"fig7c+fig8a cold then warm: 25 long closure-thread machines (locks, ds) where goroutine handoff sets the wall time",
		[]string{"fig7c", "fig8a"}, 0, 3, 2},
	{"compiled-programs",
		"fig2-fig6c+barrierzoo cold then warm, 464 short compiled-program machines and 403 cache records, plus 50 fencecheck fuzz shapes",
		[]string{"fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "barrierzoo"}, 50, 2, 5},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// failure is one failed operation, attributable to its cell.
type failure struct {
	Workload   string `json:"workload"`
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Reason     string `json:"reason"`
}

// pass is what one cold pass (and its replay) measured.
type pass struct {
	Seed   int64   `json:"seed"`
	Wall   float64 `json:"wall_s"`   // cold generation and fuzz shapes
	CPU    float64 `json:"cpu_s"`    // process user+sys CPU over Wall
	Fuzz   float64 `json:"fuzz_s"`   // the fuzz shapes alone, within Wall
	Replay float64 `json:"replay_s"` // warm replay
	SimOps uint64  `json:"sim_ops"`  // simulated loads+stores
	States int     `json:"states"`   // explorer states of the fuzz shapes
}

// bench is one benchmark process: the pool and platform built at
// set-up, the sim counters, and the outcome of every check so far.
type bench struct {
	wl      workload
	pool    *runner.Pool
	plat    *platform.Platform
	workdir string
	simReg  *metrics.Registry // sim's global registry in measured passes
	digests map[string]string // recorded output digests for wl at defaultSeed
	tr      *tracer           // nil in measured passes

	attempted int
	failures  []failure
}

func (b *bench) fail(exp string, seed int64, format string, args ...any) {
	f := failure{b.wl.name, exp, seed, fmt.Sprintf(format, args...)}
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s %s seed=%d: %s\n", f.Workload, f.Experiment, f.Seed, f.Reason)
	b.failures = append(b.failures, f)
}

func (b *bench) simOps() uint64 {
	return b.simReg.Counter("sim_loads_total").Value() + b.simReg.Counter("sim_stores_total").Value()
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cacheFor is the cell cache as a pass sees it: traced passes go
// through the counting wrapper.
func (b *bench) cacheFor(c *cellcache.Cache) runner.CellCache {
	if b.tr != nil {
		return b.tr.wrapCache(c)
	}
	return c
}

// run executes one pass at seed: it regenerates the workload's
// experiments cold into a fresh cache directory, runs its fuzz shapes,
// then replays the experiments from the cache. Only the generation,
// the fuzz shapes and the replay are timed; rendering and checking the
// output happen outside the clock.
func (b *bench) run(seed int64) (pass, error) {
	p := pass{Seed: seed}
	dir, err := os.MkdirTemp(b.workdir, "cache-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	ops0, cpu0 := b.simOps(), cpuSeconds()
	start := time.Now()
	c := cellcache.Open(dir)
	cold := b.generateAll(b.cacheFor(c), seed)
	c.Close()
	rep, fuzzErr := b.fuzz(&p)
	p.Wall = time.Since(start).Seconds()
	p.CPU = cpuSeconds() - cpu0
	p.SimOps = b.simOps() - ops0

	start = time.Now()
	c = cellcache.Open(dir)
	warm := b.generateAll(b.cacheFor(c), seed)
	c.Close()
	p.Replay = time.Since(start).Seconds()

	for i, name := range b.wl.exps {
		if b.tr != nil {
			b.tr.expDone(name, cold[i].wall, cold[i].cells)
		}
		b.attempted += 2 // the cold generation and its replay
		if cold[i].err != nil {
			b.fail(name, seed, "cold: %v", cold[i].err)
			b.attempted-- // no replay to compare against
			continue
		}
		out := render(cold[i].tables)
		if msg := checkTables(cold[i].exp, cold[i].tables); msg != "" {
			b.fail(name, seed, "cold: %s", msg)
		} else if seed == defaultSeed {
			if msg := checkDigest(b.digests, name, out); msg != "" {
				b.fail(name, seed, "cold: %s", msg)
			}
		}
		switch {
		case warm[i].err != nil:
			b.fail(name, seed, "replay: %v", warm[i].err)
		case render(warm[i].tables) != out:
			b.fail(name, seed, "replay output differs from the cold pass")
		}
	}
	b.checkFuzz(rep, fuzzErr)
	if b.tr != nil && b.wl.fuzz > 0 {
		// Corpus generation alone, outside the timed pass (FuzzShapes
		// generates each shape inside its cell).
		start := time.Now()
		explore.Gen(fuzzCorpusSeed, b.wl.fuzz)
		b.tr.genDone(time.Since(start).Seconds())
	}
	return p, nil
}

// generated is one experiment's tables, or the panic that replaced them.
type generated struct {
	exp    figures.Experiment
	tables []*report.Table
	err    error
	wall   float64 // seconds
	cells  int     // pool cells the generation ran
}

func (b *bench) generateAll(cc runner.CellCache, seed int64) []generated {
	o := figures.Options{Quick: true, Seed: seed, Pool: b.pool, Cache: cc}
	out := make([]generated, len(b.wl.exps))
	for i, name := range b.wl.exps {
		exp, _ := figures.ByName(name) // names are checked at start-up
		out[i] = generated{exp: exp}
		var run figures.ExperimentRun
		out[i].err = catch(func() { out[i].tables, run = figures.RunInstrumented(exp, o, nil) })
		out[i].wall, out[i].cells = run.WallSeconds, run.Cells
	}
	return out
}

// catch runs f, turning a panic (such as a failed cell, which
// runner.Map and MapCached re-raise on this goroutine) into an error.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", firstLine(fmt.Sprint(r)))
		}
	}()
	f()
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// fuzz runs the workload's shapes of the `make fencecheck` fuzz batch
// as that target does, through explore.FuzzShapes: one case per cell,
// each case checked by all three oracles. The batch is the same on
// every pass, so --seed does not reach it.
func (b *bench) fuzz(p *pass) (*explore.FuzzReport, error) {
	if b.wl.fuzz == 0 {
		return nil, nil
	}
	if b.tr != nil {
		b.tr.fuzzing(true)
		defer b.tr.fuzzing(false)
	}
	start := time.Now()
	var rep *explore.FuzzReport
	err := catch(func() { rep = explore.FuzzShapes(fuzzCorpusSeed, b.wl.fuzz, fuzzRuns, b.plat, b.pool) })
	p.Fuzz = time.Since(start).Seconds()
	if err == nil {
		p.States = rep.States
	}
	return rep, err
}

// checkFuzz checks a pass's fuzz report. rep.OK() fails exactly when
// some case has an Err; each such case is failed on its own, so the
// failure names it.
func (b *bench) checkFuzz(rep *explore.FuzzReport, err error) {
	switch {
	case b.wl.fuzz == 0:
		return
	case err != nil:
		b.attempted++
		b.fail("FuzzShapes", fuzzCorpusSeed, "%v", err)
		return
	}
	for _, c := range rep.Cases {
		b.attempted++
		msg := checkDigest(b.digests, c.Name, caseRecord(c))
		if c.Err != "" {
			msg = "oracle disagreement: " + firstLine(c.Err)
		}
		if msg != "" {
			b.fail(c.Name, fuzzCorpusSeed, "%s", msg)
		}
	}
}

// caseRecord renders a fuzz verdict: a different record means the
// explorer or the clause model changed its answer.
func caseRecord(c explore.FuzzCase) string {
	return fmt.Sprintf("%s|%s|threads=%d|slots=%d|explored=%d|states=%d|err=%q\n",
		c.Name, c.Family, c.Threads, c.Slots, c.Explored, c.States, c.Err)
}

// recordDigests runs one pass at defaultSeed and returns the digest of
// every output it checks, for digests.json.
func (b *bench) recordDigests() map[string]string {
	out := map[string]string{}
	for _, g := range b.generateAll(nil, defaultSeed) {
		if g.err != nil {
			b.fail(g.exp.Name, defaultSeed, "%v", g.err)
			continue
		}
		out[g.exp.Name] = digest(render(g.tables))
	}
	if b.wl.fuzz > 0 {
		rep := explore.FuzzShapes(fuzzCorpusSeed, b.wl.fuzz, fuzzRuns, b.plat, b.pool)
		for _, c := range rep.Cases {
			if c.Err != "" {
				b.fail(c.Name, fuzzCorpusSeed, "oracle disagreement: %s", firstLine(c.Err))
			}
			out[c.Name] = digest(caseRecord(c))
		}
	}
	return out
}

// setup is what a benchmark process does before its first cell: open
// a cell cache (hashing the simulation sources), start the pool, build
// the platform, and run one cell through the pool. It also returns how
// long the cache open took.
func setup(workdir string, workers int) (*runner.Pool, *platform.Platform, float64, error) {
	dir, err := os.MkdirTemp(workdir, "setup-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	cc := cellcache.Open(dir)
	openS := time.Since(start).Seconds()
	cc.Close()
	pool := runner.New(workers)
	plat := platform.Kunpeng916()
	runner.Submit(pool, func() int { return plat.Sys.NumCores() }).Get()
	return pool, plat, openS, nil
}
