// Command armbar regenerates the tables and figures of the ARM-barrier
// study from the simulator-based reproduction.
//
// Usage:
//
//	armbar [-quick] [-seed N] [-par N] [-csv] [-metrics f] [-trace-out f] <experiment> [...]
//	armbar perfcheck [-snapshot BENCH_sim.json] [-threshold 1.8]
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b
// fig6c fig6d fig7a fig7b fig7c fig8a fig8b fig8c fig8d platforms all.
//
// -par N fans each experiment's independent simulation cells out over
// N workers (default GOMAXPROCS; 1 forces the inline sequential path).
// Output is byte-identical at every -par value and seed: parallelism
// only changes when a cell computes, never what it computes.
//
// Observability (see README "Observability"): -metrics writes a JSON
// snapshot of simulator, runner and per-experiment metrics ("-" for
// stdout, after the tables); -metrics-prom selects Prometheus text
// instead; -trace-out writes a merged Chrome/Perfetto trace of the
// simulated machines; -manifest writes a run manifest (also written as
// manifest.json into the -o directory). -serve :PORT runs the embedded
// observability server (/healthz, /metrics, /progress, /profile,
// /debug/pprof) for the duration of the run, and `armbar watch` polls
// it from another terminal. -profile-out writes the cycle-attribution
// profile as folded stacks for flamegraph tooling. perfcheck reruns
// the hot-path microbenchmarks and fails when they regress against
// BENCH_sim.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"armbar/internal/cellcache"
	"armbar/internal/figures"
	"armbar/internal/metrics"
	"armbar/internal/progress"
	"armbar/internal/runner"
	"armbar/internal/serve"
	"armbar/internal/sim"
	"armbar/internal/trace"
)

var (
	quick  = flag.Bool("quick", false, "shrink iteration counts for a fast smoke run")
	seed   = flag.Int64("seed", 42, "simulation seed")
	csv    = flag.Bool("csv", false, "emit CSV instead of aligned text")
	md     = flag.Bool("md", false, "emit markdown instead of aligned text")
	outDir = flag.String("o", "", "also write each table as a CSV file into this directory")
	par    = flag.Int("par", runtime.GOMAXPROCS(0),
		"worker count for experiment cells (1 = sequential, 0 = GOMAXPROCS)")
	times = flag.Bool("times", true, "report per-experiment wall time on stderr")

	engineName = flag.String("engine", "compiled",
		"simulation engine for micro-op programs: compiled (native dispatch, the default) or interp (walked through the per-op Thread methods); outputs are byte-identical")

	serveAddr = flag.String("serve", "",
		"run the observability HTTP server on this address for the duration of the run (e.g. :8377; exposes /healthz /metrics /progress /profile /debug/pprof)")
	profileOut = flag.String("profile-out", "",
		"write the cycle-attribution profile as folded stacks (flamegraph.pl / speedscope input) to this file")

	metricsOut  = flag.String("metrics", "", "write run metrics as JSON to this file (\"-\" = stdout, after the tables)")
	metricsProm = flag.Bool("metrics-prom", false, "write -metrics output in Prometheus text format instead of JSON")
	traceOut    = flag.String("trace-out", "", "write a merged Chrome/Perfetto trace of the simulated machines to this file")
	traceCap    = flag.Int("trace-cap", 4096, "with -trace-out: most recent events kept per machine (0 = unlimited)")
	traceMach   = flag.Int("trace-machines", 256, "with -trace-out: maximum machines traced")
	manifestOut = flag.String("manifest", "", "write a run manifest (seed, flags, git rev, per-experiment metrics) to this file")

	cacheOn  = onOff(true)
	cacheDir = flag.String("cache-dir", ".armbar-cache", "result-cache directory (see README \"Result cache\")")
)

func init() {
	flag.Var(&cacheOn, "cache", "consult the persistent result cache: on|off (default on; -cache=off recomputes everything)")
}

// onOff is a boolean flag that additionally accepts the on/off
// spelling the docs use (`-cache=off`), while keeping bare `-cache`
// working like a normal bool flag.
type onOff bool

func (o *onOff) String() string {
	if o != nil && bool(*o) {
		return "on"
	}
	return "off"
}

func (o *onOff) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "on", "true", "1", "yes":
		*o = true
	case "off", "false", "0", "no":
		*o = false
	default:
		return fmt.Errorf("want on or off, got %q", s)
	}
	return nil
}

func (o *onOff) IsBoolFlag() bool { return true }

// manifest is the self-describing record written next to a run's
// results: everything needed to reproduce or audit the run.
type manifest struct {
	Tool        string                  `json:"tool"`
	Date        string                  `json:"date"`
	GoVersion   string                  `json:"go_version"`
	GitRevision string                  `json:"git_revision"`
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	Seed        int64                   `json:"seed"`
	Quick       bool                    `json:"quick"`
	Par         int                     `json:"par"`
	Engine      string                  `json:"engine"`
	Args        []string                `json:"args"`
	WallSeconds float64                 `json:"wall_seconds"`
	Experiments []figures.ExperimentRun `json:"experiments"`
	MetricsFile string                  `json:"metrics_file,omitempty"`
	TraceFile   string                  `json:"trace_file,omitempty"`
	ProfileFile string                  `json:"profile_file,omitempty"`
	Cache       *cellcache.Stats        `json:"cache,omitempty"`
	Profile     *sim.ProfileReport      `json:"profile,omitempty"`
}

// gitRevision reads the VCS revision stamped into the binary, falling
// back to "unknown" (e.g. for plain `go run` of a non-VCS tree).
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// teeTracer fans one machine's events out to both observability sinks.
type teeTracer struct{ a, b sim.Tracer }

func (t teeTracer) Event(ev sim.TraceEvent) {
	t.a.Event(ev)
	t.b.Event(ev)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "armbar: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "perfcheck" {
		os.Exit(perfcheckMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "cache" {
		os.Exit(cacheMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(watchMain(os.Args[2:]))
	}
	flag.Parse()
	engine, err := sim.ParseEngine(*engineName)
	if err != nil {
		fail("%v", err)
	}
	sim.SetDefaultEngine(engine)
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: armbar [-quick] [-seed N] [-par N] [-csv] [-engine compiled|interp] [-cache=off] <experiment> [...]\n")
		fmt.Fprintf(os.Stderr, "       armbar perfcheck [-snapshot BENCH_sim.json]\n")
		fmt.Fprintf(os.Stderr, "       armbar cache [stats|gc|clear] [-dir .armbar-cache]\n")
		fmt.Fprintf(os.Stderr, "       armbar watch [-addr http://127.0.0.1:8377] [-interval 1s] [-once]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s all\n", strings.Join(figures.Names(), " "))
		os.Exit(2)
	}
	for _, a := range args {
		// flag stops at the first experiment name; a stray "-quick" after
		// it would otherwise be silently dropped (and regenerate at full
		// scale), so reject flag-looking positionals outright.
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "armbar: flag %q after experiment names; flags must come first\n", a)
			os.Exit(2)
		}
	}
	requested := append([]string(nil), args...)
	if args[0] == "all" {
		args = figures.Names()
	} else if args[0] == "platforms" {
		args = []string{"table2"}
	}

	// Observability sinks. All hooks are installed before any machine
	// is built and cost nothing when their flags are unset. -serve
	// implies a registry (it has a /metrics endpoint to feed) and a
	// profile collector; -profile-out implies just the collector.
	var reg *metrics.Registry
	if *metricsOut != "" || *serveAddr != "" {
		reg = metrics.NewRegistry()
		sim.SetGlobalMetrics(reg)
	}
	var profc *sim.ProfileCollector
	if *serveAddr != "" || *profileOut != "" {
		profc = sim.NewProfileCollector()
		sim.SetGlobalProfile(profc)
	}
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollector(*traceCap, *traceMach)
	}
	if reg != nil || collector != nil {
		var mt sim.Tracer
		if reg != nil {
			mt = sim.NewMetricsTracer(reg)
		}
		sim.SetMachineTracerFactory(func() sim.Tracer {
			var rec sim.Tracer
			if collector != nil {
				rec = collector.NewTracer()
			}
			switch {
			case mt != nil && rec != nil:
				return teeTracer{mt, rec}
			case mt != nil:
				return mt
			default:
				return rec
			}
		})
	}

	// Live observability plane: the progress tracker feeds /progress
	// through the pool's cell hooks, and the HTTP server reads all
	// sinks for the duration of the run.
	var tracker *progress.Tracker
	var server *serve.Server
	if *serveAddr != "" {
		tracker = progress.New(args)
		server = serve.New(serve.Options{Registry: reg, Profile: profc, Tracker: tracker})
		bound, err := server.Start(*serveAddr)
		if err != nil {
			fail("%v", err)
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "# serve    listening on http://%s (healthz, metrics, progress, profile, debug/pprof)\n", bound)
	}

	// One pool for the whole invocation; -par 1 keeps cells inline on
	// this goroutine so the sequential baseline spawns no workers.
	var pool *runner.Pool
	if *par != 1 {
		pool = runner.New(*par)
		pool.SetMetrics(reg) // nil-safe: dark without -metrics
		if tracker != nil {
			pool.SetProgress(tracker)
		}
		defer pool.Close()
	}
	o := figures.Options{Quick: *quick, Seed: *seed, Pool: pool}

	// Persistent result cache: cells hit before they simulate. -cache=off
	// disables both lookup and store, reproducing the uncached pipeline.
	var cache *cellcache.Cache
	if bool(cacheOn) {
		cache = cellcache.Open(*cacheDir)
		cache.SetMetrics(reg) // nil-safe: dark without -metrics
		defer cache.Close()
		o.Cache = cache
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail("%v", err)
		}
	}
	man := manifest{
		Tool:        "armbar",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Quick:       *quick,
		Par:         *par,
		Engine:      engine.String(),
		Args:        requested,
		MetricsFile: *metricsOut,
		TraceFile:   *traceOut,
	}
	start := time.Now()
	for _, name := range args {
		exp, ok := figures.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "armbar: unknown experiment %q (have: %s)\n",
				name, strings.Join(figures.Names(), " "))
			os.Exit(2)
		}
		if tracker != nil {
			tracker.StartExperiment(name)
		}
		tables, run := figures.RunInstrumented(exp, o, reg)
		if tracker != nil {
			tracker.FinishExperiment(name, run.Cells, run.CacheHits, run.WallSeconds)
		}
		man.Experiments = append(man.Experiments, run)
		if *times {
			fmt.Fprintf(os.Stderr, "# %-8s %2d table(s) in %v\n", name, len(tables),
				time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond))
		}
		if len(tables) != exp.Tables {
			fail("%s emitted %d tables, registry says %d", name, len(tables), exp.Tables)
		}
		for i, t := range tables {
			switch {
			case *csv:
				fmt.Print(t.CSV())
			case *md:
				fmt.Println(t.Markdown())
			default:
				fmt.Println(t.String())
			}
			if *outDir != "" {
				file := filepath.Join(*outDir, name+".csv")
				if len(tables) > 1 {
					file = filepath.Join(*outDir, fmt.Sprintf("%s_%d.csv", name, i))
				}
				if err := os.WriteFile(file, []byte(t.CSV()), 0o644); err != nil {
					fail("%v", err)
				}
			}
		}
	}
	man.WallSeconds = time.Since(start).Seconds()
	if *times {
		fmt.Fprintf(os.Stderr, "# total    %v (par=%d)\n",
			time.Duration(man.WallSeconds*float64(time.Second)).Round(time.Millisecond), *par)
	}

	// Close the pool before exporting so the derived whole-run gauges
	// (worker utilization, cells/sec) are frozen; the deferred Close is
	// then a no-op. The cache closes next so its shard files and index
	// are durable before the manifest records its final stats.
	pool.Close()
	if tracker != nil {
		tracker.Finish()
	}
	if cache != nil {
		cache.Close()
		st := cache.Stats()
		man.Cache = &st
	}

	if profc != nil {
		p := profc.Snapshot()
		rep := p.Report()
		man.Profile = &rep
		if reg != nil {
			// Final fold so a -metrics file carries the profile gauges the
			// /metrics endpoint refreshed per scrape.
			p.MetricsInto(reg)
		}
		if *profileOut != "" {
			if err := writeFoldedStacks(man, *profileOut); err != nil {
				fail("%v", err)
			}
			man.ProfileFile = *profileOut
			fmt.Fprintf(os.Stderr, "# profile  %s: %d cause(s) across %d machine(s), %d gap(s) — fold with flamegraph.pl or load into speedscope\n",
				*profileOut, len(rep.Causes), rep.Machines, rep.Gaps)
		}
	}

	if reg != nil && *metricsOut != "" {
		if err := writeMetrics(reg, *metricsOut, *metricsProm); err != nil {
			fail("%v", err)
		}
	}
	if collector != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := collector.WriteChromeJSON(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "# trace    %s: %d machine(s), %d dropped event(s), %d machine(s) untraced — open at https://ui.perfetto.dev\n",
			*traceOut, collector.Machines(), collector.Dropped(), collector.Skipped())
	}
	manifestPath := *manifestOut
	if manifestPath == "" && *outDir != "" {
		manifestPath = filepath.Join(*outDir, "manifest.json")
	}
	if manifestPath != "" {
		if err := writeManifest(man, manifestPath); err != nil {
			fail("%v", err)
		}
	}
}

// writeFoldedStacks renders the per-experiment attribution rollup in
// the folded-stacks format flamegraph tooling consumes: one line per
// stack ("armbar;<experiment>;<cause>") weighted by simulated cycles.
// Cause rows are emitted in sorted order so the file is deterministic
// for a given run.
func writeFoldedStacks(man manifest, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, run := range man.Experiments {
		names := make([]string, 0, len(run.ProfileCycles))
		for name := range run.ProfileCycles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cyc := run.ProfileCycles[name]
			if cyc <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(f, "armbar;%s;%s %d\n", run.Name, name, int64(cyc+0.5)); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func writeMetrics(reg *metrics.Registry, dest string, prom bool) error {
	w := os.Stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if prom {
		return reg.WriteProm(w)
	}
	return reg.WriteJSON(w)
}

func writeManifest(man manifest, path string) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
