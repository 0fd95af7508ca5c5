package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec declares one reported metric. ../BENCHMARK.json lists the
// same names, units and directions (bench_test.go checks).
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a user of armbar sees; every run reports
// them all, on every workload, and none is ever 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics. Counts are per traced pass;
// a metric of a layer the workload does not use reads 0.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, w := range workloads {
		for _, e := range w.exps {
			out = append(out, metricSpec{"figures.exp_s." + e, "s", "lower"})
		}
	}
	return append(out, []metricSpec{
		{"figures.cells", "count", "lower"},
		{"runner.cells", "count", "lower"},
		{"runner.queue_wait_p50_ms", "ms", "lower"},
		{"runner.queue_wait_p99_ms", "ms", "lower"},
		{"runner.service_p50_ms", "ms", "lower"},
		{"runner.service_p99_ms", "ms", "lower"},
		{"runner.utilization", "ratio", "higher"},
		{"cellcache.open_s", "s", "lower"},
		{"cellcache.put_calls", "count", "lower"},
		{"cellcache.put_bytes", "B", "lower"},
		{"cellcache.put_s", "s", "lower"},
		{"cellcache.get_calls", "count", "lower"},
		{"cellcache.hits", "count", "higher"},
		{"cellcache.get_s", "s", "lower"},
		{"sim.machines", "count", "lower"},
		{"sim.ops", "count", "lower"},
		{"sim.virtual_cycles", "cycles", "lower"},
		{"sim.park_wakes", "count", "lower"},
		{"sim.inline_dispatches", "count", "higher"},
		{"sim.inline_rate", "ratio", "higher"},
		{"sim.host_ns_per_op", "ns", "lower"},
		{"explore.states", "count", "lower"},
		{"explore.probe_len_mean", "probes", "lower"},
		{"explore.table_grows", "count", "lower"},
		{"explore.gen_s", "s", "lower"},
		{"explore.case_p50_ms", "ms", "lower"},
		{"explore.case_p99_ms", "ms", "lower"},
		{"host.handoff_share", "ratio", "lower"},
		{"host.sched_share", "ratio", "lower"},
		{"host.semantics_share", "ratio", "higher"},
		{"host.workload_share", "ratio", "higher"},
		{"host.cellcache_share", "ratio", "lower"},
		{"host.explore_share", "ratio", "higher"},
		{"host.gc_share", "ratio", "lower"},
		{"host.other_share", "ratio", "lower"},
		{"trace.overhead", "ratio", "lower"},
		{"replay_s", "s", "lower"},
		{"states_per_s", "1/s", "higher"},
		{"error_rate", "ratio", "lower"},
	}...)
}

// layerMetrics adds the per-layer metrics of the traced passes to m.
func (t *tracer) layerMetrics(m map[string]float64, traced []pass, workers int, openS float64) error {
	reps := float64(len(traced))
	snap := t.reg.Snapshot()
	counter := func(name string) float64 { return float64(snap.Counters[name]) }
	perPass := func(name string) float64 { return counter(name) / reps }

	for _, s := range perLayer() {
		if exp, ok := strings.CutPrefix(s.name, "figures.exp_s."); ok {
			m[s.name] = median(t.exps[exp])
		}
	}
	m["figures.cells"] = float64(t.expCells) / reps
	m["runner.cells"] = perPass("runner_cells_total")
	m["runner.queue_wait_p50_ms"] = 1e3 * median(t.queueWait)
	m["runner.queue_wait_p99_ms"] = 1e3 * p99(t.queueWait)
	m["runner.service_p50_ms"] = 1e3 * median(t.service)
	m["runner.service_p99_ms"] = 1e3 * p99(t.service)
	busy := counter("runner_busy_ns_total") / 1e9
	m["runner.utilization"] = busy / (sum(field(traced, func(p pass) float64 { return p.Wall })) * float64(workers))

	m["cellcache.open_s"] = openS
	m["cellcache.put_calls"] = float64(t.putCalls.Load()) / reps
	m["cellcache.put_bytes"] = float64(t.putBytes.Load()) / reps
	m["cellcache.put_s"] = time.Duration(t.putNs.Load()).Seconds() / reps
	m["cellcache.get_calls"] = float64(t.getCalls.Load()) / reps
	m["cellcache.hits"] = float64(t.hits.Load()) / reps
	m["cellcache.get_s"] = time.Duration(t.getNs.Load()).Seconds() / reps

	ops := counter("sim_loads_total") + counter("sim_stores_total")
	inline, parked := counter("sim_inline_dispatches_total"), counter("sim_park_wakes_total")
	m["sim.machines"] = perPass("sim_machines_total")
	m["sim.ops"] = ops / reps
	m["sim.virtual_cycles"] = snap.Gauges["sim_virtual_cycles_total"] / reps
	m["sim.park_wakes"] = parked / reps
	m["sim.inline_dispatches"] = inline / reps
	m["sim.inline_rate"] = ratio(inline, inline+parked)
	m["sim.host_ns_per_op"] = ratio(busy*1e9, ops)

	m["explore.states"] = perPass("explore_states_total")
	m["explore.probe_len_mean"] = ratio(counter("explore_probes_total"), counter("explore_table_lookups_total"))
	m["explore.table_grows"] = perPass("explore_table_grows_total")
	m["explore.gen_s"] = median(t.gens)
	m["explore.case_p50_ms"] = 1e3 * median(t.cases)
	m["explore.case_p99_ms"] = 1e3 * p99(t.cases)

	samples, err := decodeProfile(t.profile.Bytes())
	if err != nil {
		return err
	}
	for layer, share := range layerShares(samples) {
		m["host."+layer+"_share"] = share
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// quantile is the i-th of the n-1 cut points that divide xs into n
// groups, exactly as Python's statistics.quantiles(xs, n=n) computes
// it (method "exclusive"); 0 for no data.
func quantile(xs []float64, i, n int) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	j := min(max(i*(len(s)+1)/n, 1), len(s)-1)
	delta := i*(len(s)+1) - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// p99 is the 99th percentile when at least ten samples lie beyond it.
// With fewer samples it falls back to the highest quantile that has
// ten beyond it, 1 - 10/n, and below 20 samples to the maximum; so on
// closure-threads, whose traced passes run 50 cells, the runner "p99"
// is a p80.
func p99(xs []float64) float64 {
	switch n := len(xs); {
	case n >= 1000:
		return quantile(xs, 99, 100)
	case n >= 20:
		return quantile(xs, n-10, n)
	case n > 0:
		return slices.Max(xs)
	default:
		return 0
	}
}

// runContext makes a run record attributable.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	PoolWidth  int     `json:"pool_width"`
	CPUModel   string  `json:"cpu_model"`
	GitRev     string  `json:"git_rev"`
	GitDirty   bool    `json:"git_dirty"`
	Time       string  `json:"time"`
}

func stampContext(cfg config, workers int) runContext {
	c := runContext{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolWidth:  workers,
		CPUModel:   cpuModel(),
		GitRev:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		c.GitRev = strings.TrimSpace(rev)
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			c.GitDirty = strings.TrimSpace(st) != ""
		}
	}
	return c
}

// git runs git in the working directory without letting it search
// above it, so a checkout that is not a repository reads "unknown".
func git(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// probeSetup measures set-up time in setupProbes fresh processes of
// this binary, each timed from just before it is spawned to the end of
// its first cell.
func probeSetup(workdir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe)
		cmd.Dir = workdir
		spawn := time.Now().UnixNano()
		cmd.Env = append(os.Environ(), probeEnv+"="+strconv.FormatInt(spawn, 10))
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// probeMain is a set-up probe: set up in the working directory, then
// print the seconds since spawn (unix ns).
func probeMain(spawn string, stdout io.Writer) int {
	ns, err := strconv.ParseInt(spawn, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s=%q: %v\n", probeEnv, spawn, err)
		return 2
	}
	pool, _, _, err := setup(".", runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, float64(time.Now().UnixNano()-ns)/1e9)
	pool.Close()
	return 0
}

func printDigestsMain(workdir string, stdout io.Writer) int {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	pool, plat, _, err := setup(workdir, runtime.NumCPU())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer pool.Close()
	all := map[string]map[string]string{}
	bad := 0
	for _, wl := range workloads {
		b := &bench{wl: wl, pool: pool, plat: plat, workdir: workdir}
		all[wl.name] = b.recordDigests()
		bad += len(b.failures)
	}
	if bad > 0 {
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	return 0
}

// writeResult prints the full run record, then the result line: the
// end-to-end metrics of a measured run, or the per-layer metrics of a
// traced one.
func writeResult(w io.Writer, rec *record) error {
	specs := endToEnd
	if rec.Context.Trace {
		specs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rec.Failures) == 0, max(rec.Attempted, 1), len(rec.Failures), map[string]value{}}
	for _, s := range specs {
		v, ok := rec.Metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", s.name)
		}
		out.Metrics[s.name] = value{v, s.unit}
	}
	if err := json.NewEncoder(w).Encode(map[string]*record{"record": rec}); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(out)
}
