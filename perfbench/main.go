// Command perfbench is armbar's end-to-end benchmark. One invocation
// runs one workload for a given time from a single process, checks
// every output it produces, and prints its metrics as the last line
// of standard output. Run it from the repository root through the
// script that builds it:
//
//	python3 perfbench/run.py --workload closure-threads --seed 1 --seconds 45 --trace 0
//
// With --trace 1 it then runs further passes at the default seed with
// the program's counters, the benchmark's spans and a CPU profile
// switched on, and prints the per-layer metrics instead.
// `perfbench compare` summarizes and compares sets of runs. README.md
// describes the workloads and metrics; ../BENCHMARK.json declares them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"armbar/internal/figures"
	"armbar/internal/metrics"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

// setupProbes is how many fresh processes measure set-up per run.
const setupProbes = 31

// probeEnv carries a set-up probe's spawn time (unix ns) to the child
// process. It is an environment variable rather than a flag so that a
// test binary can serve as its own probe.
const probeEnv = "PERFBENCH_SETUP_PROBE"

func main() {
	if spawn := os.Getenv(probeEnv); spawn != "" {
		os.Exit(probeMain(spawn, os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	passes   int // passes per phase; 0 = the workload's minPasses and tracedPasses
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measure for at least this long")
	trace := fs.Int("trace", 0, "1 = also run the traced passes and print the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's cache directories")
	printDigests := fs.Bool("print-digests", false, "print the output digests of every workload at the default seed, for digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printDigests {
		return printDigestsMain(cfg.workdir, stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *trace == 1
	rec, err := runBench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := writeResult(stdout, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// record is everything one run measured, stamped with its context.
type record struct {
	Context   runContext         `json:"context"`
	Metrics   map[string]float64 `json:"metrics"`
	Setup     []float64          `json:"setup_samples_s"`
	Passes    []pass             `json:"passes"`
	Traced    []pass             `json:"traced_passes,omitempty"`
	Attempted int                `json:"attempted"`
	Failures  []failure          `json:"failures"`
}

// runBench is one benchmark run: set-up, the measured passes, and with
// cfg.trace the traced passes.
func runBench(cfg config) (*record, error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	for _, name := range wl.exps {
		if _, ok := figures.ByName(name); !ok {
			return nil, fmt.Errorf("workload %s: unknown experiment %q", wl.name, name)
		}
	}
	all, err := loadDigests()
	if err != nil {
		return nil, err
	}
	if len(all[wl.name]) == 0 {
		return nil, fmt.Errorf("digests.json has no digests for %s", wl.name)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	workers := runtime.NumCPU()
	pool, plat, openS, err := setup(workdir, workers)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	setupSamples, err := probeSetup(workdir)
	if err != nil {
		return nil, err
	}

	// The sim counters stay on in measured passes: they are the only
	// source of sim_ops_per_s, and cost a few atomic adds per machine.
	simReg := metrics.NewRegistry()
	sim.SetGlobalMetrics(simReg)
	defer sim.SetGlobalMetrics(nil)
	b := &bench{wl: wl, pool: pool, plat: plat, workdir: workdir, simReg: simReg, digests: all[wl.name]}
	minPasses, tracedPasses := wl.minPasses, wl.tracedPasses
	if cfg.passes > 0 {
		minPasses, tracedPasses = cfg.passes, cfg.passes
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var passes []pass
	for k := 0; k < minPasses || time.Now().Before(deadline); k++ {
		seed := int64(defaultSeed)
		if k > 0 {
			seed = cfg.seed + int64(k-1)
		}
		p, err := b.run(seed)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	rec := &record{
		Context: stampContext(cfg, workers),
		Setup:   setupSamples,
		Passes:  passes,
	}
	m := map[string]float64{
		"setup_s":       median(setupSamples),
		"wall_s":        median(field(passes, func(p pass) float64 { return p.Wall })),
		"cpu_s":         median(field(passes, func(p pass) float64 { return p.CPU })),
		"sim_ops_per_s": median(field(passes, func(p pass) float64 { return float64(p.SimOps) / p.Wall })),
		"peak_rss_mb":   peakRSSMiB(),
		"replay_s":      median(field(passes, func(p pass) float64 { return p.Replay })),
		"states_per_s":  median(field(passes, func(p pass) float64 { return ratio(float64(p.States), p.Fuzz) })),
	}

	if cfg.trace {
		// A fresh pool, so its counters and spans cover exactly the
		// traced passes. Every traced pass runs at defaultSeed, which
		// makes the per-pass counts repeat exactly from run to run.
		tr := newTracer()
		tpool := runner.New(workers)
		b.pool, b.tr = tpool, tr
		if err := tr.start(tpool); err != nil {
			tpool.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		traced := make([]pass, tracedPasses)
		for i := range traced {
			if traced[i], err = b.run(defaultSeed); err != nil {
				break
			}
		}
		tr.stop()
		sim.SetGlobalMetrics(simReg)
		tpool.Close()
		if err != nil {
			return nil, err
		}
		rec.Traced = traced
		if err := tr.layerMetrics(m, traced, workers, openS); err != nil {
			return nil, err
		}
		m["trace.overhead"] = median(field(traced, func(p pass) float64 { return p.Wall }))/m["wall_s"] - 1
	}
	rec.Attempted = b.attempted
	rec.Failures = b.failures
	m["error_rate"] = float64(len(b.failures)) / float64(max(b.attempted, 1))
	rec.Metrics = m
	return rec, nil
}

func field(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
