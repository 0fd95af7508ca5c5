package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"armbar/internal/figures"
	"armbar/internal/metrics"
	"armbar/internal/report"
)

func TestMain(m *testing.M) {
	// The set-up probes of runBench re-execute this test binary.
	if spawn := os.Getenv(probeEnv); spawn != "" {
		os.Exit(probeMain(spawn, os.Stdout))
	}
	os.Exit(m.Run())
}

// declared is ../BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), perfbench %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(d.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range d.EndToEnd {
		checkName(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s/%s/%s, perfbench %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}

	layer := perLayer()
	if len(d.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(d.PerLayer), len(layer))
	}
	for i, m := range d.PerLayer {
		checkName(m.Name)
		want := layer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %s/%s/%s, perfbench %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}

// TestTinyRuns runs every workload for one pass, traced, and checks
// that it reports every declared metric with no failed operation.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, err := runBench(config{workload: w.name, seed: 7, trace: true, workdir: t.TempDir(), passes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Failures) > 0 || rec.Metrics["error_rate"] != 0 {
				t.Fatalf("failures: %+v", rec.Failures)
			}
			if rec.Attempted == 0 {
				t.Fatal("no operation attempted")
			}
			for _, s := range endToEnd {
				if v, ok := rec.Metrics[s.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v, %v; want > 0", s.name, v, ok)
				}
			}
			for _, s := range perLayer() {
				if _, ok := rec.Metrics[s.name]; !ok {
					t.Errorf("per-layer %s missing", s.name)
				}
			}
			for _, trace := range []bool{false, true} {
				rec.Context.Trace = trace
				var out bytes.Buffer
				if err := writeResult(&out, rec); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct bool                       `json:"correct"`
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
					t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer())
				}
				if len(res.Metrics) != want {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), want)
				}
			}
		})
	}
}

// fig5Bench is a compiled-programs bench reduced to its fastest
// experiment, for exercising the checks.
func fig5Bench(t *testing.T, digests map[string]string) *bench {
	t.Helper()
	pool, plat, _, err := setup(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return &bench{
		wl:      workload{name: "compiled-programs", exps: []string{"fig5"}},
		pool:    pool,
		plat:    plat,
		workdir: t.TempDir(),
		simReg:  metrics.NewRegistry(),
		digests: digests,
	}
}

func TestCorruptedTableTripsTheCheck(t *testing.T) {
	all, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	want := all["compiled-programs"]
	exp, _ := figures.ByName("fig5")
	b := fig5Bench(t, want)
	g := b.generateAll(nil, defaultSeed)[0]
	if g.err != nil {
		t.Fatal(g.err)
	}
	if msg := checkTables(exp, g.tables); msg != "" {
		t.Fatalf("clean output fails the table check: %s", msg)
	}
	if msg := checkDigest(want, "fig5", render(g.tables)); msg != "" {
		t.Fatalf("clean output fails the digest check: %s", msg)
	}

	// One changed digit in one cell.
	w := g.tables[0].Wire()
	rows := make([][]string, len(w.Rows))
	for i, r := range w.Rows {
		rows[i] = append([]string(nil), r...)
	}
	last := len(rows[0]) - 1
	rows[0][last] = strings.Map(func(r rune) rune {
		if r >= '0' && r < '9' {
			return r + 1
		}
		return r
	}, rows[0][last])
	w.Rows = rows
	if msg := checkDigest(want, "fig5", render([]*report.Table{report.FromWire(w)})); msg == "" {
		t.Error("a corrupted cell passes the digest check")
	}

	// A table with its rows dropped.
	w.Rows = nil
	if msg := checkTables(exp, []*report.Table{report.FromWire(w)}); msg == "" {
		t.Error("an empty table passes the table check")
	}
	if msg := checkTables(exp, nil); msg == "" {
		t.Error("a missing table passes the table check")
	}
}

// TestDigestMismatchFailsThePass runs a real pass against a wrong
// recorded digest: the failure must be counted against the
// experiment and seed.
func TestDigestMismatchFailsThePass(t *testing.T) {
	b := fig5Bench(t, map[string]string{"fig5": digest("not fig5")})
	if _, err := b.run(defaultSeed); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 2 || len(b.failures) != 1 {
		t.Fatalf("attempted %d, failures %+v; want 2 attempted, 1 failure", b.attempted, b.failures)
	}
	f := b.failures[0]
	if f.Experiment != "fig5" || f.Seed != defaultSeed || !strings.Contains(f.Reason, "digest") {
		t.Errorf("failure %+v", f)
	}
}

func TestLayerOfHotFunctions(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mcall":                                     "handoff",
		"runtime.park_m":                                    "handoff",
		"runtime.futex":                                     "handoff",
		"runtime.Gosched":                                   "handoff",
		"runtime.runqgrab":                                  "handoff",
		"armbar/internal/sim.(*Thread).park":                "sched",
		"armbar/internal/sim.(*Thread).grant":               "sched",
		"armbar/internal/sim.(*Thread).dispatch":            "sched",
		"armbar/internal/sim.(*runHeap).down":               "sched",
		"armbar/internal/sim.(*Thread).run.func1":           "sched",
		"armbar/internal/sim.(*Machine).process":            "semantics",
		"armbar/internal/sim.execStore":                     "semantics",
		"armbar/internal/sim.(*eventHeap).push":             "semantics",
		"armbar/internal/sb.(*Buffer).Push":                 "semantics",
		"armbar/internal/mesi.(*Directory).Read":            "semantics",
		"armbar/internal/locks.(*MCS).Lock":                 "workload",
		"armbar/internal/absmodel.GenSafe":                  "workload",
		"armbar/internal/cellcache.(*Cache).Put":            "cellcache",
		"encoding/gob.(*Encoder).Encode":                    "cellcache",
		"armbar/internal/runner.encodeCell[go.shape.int]":   "cellcache",
		"armbar/internal/explore.(*fastExplorer).expandOne": "explore",
		"runtime.gcBgMarkWorker":                            "gc",
		"runtime.scanobject":                                "gc",
		"runtime.memmove":                                   "",
		"runtime.mallocgc":                                  "",
		"armbar/internal/simbench.BenchLoadHit":             "",
		"main.main":                                         "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "armbar/internal/sb.(*Buffer).Push", "armbar/internal/sim.(*Thread).dispatch"}, "semantics"},
		{[]string{"runtime.futex", "runtime.park_m", "runtime.mcall", "armbar/internal/sim.(*Thread).park"}, "handoff"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "armbar/internal/locks.(*MCS).Lock"}, "gc"},
		{[]string{"runtime.memmove", "main.main", "runtime.main"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spinForProfile(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

func TestDecodeOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile in use:", err)
	}
	sink := 0
	for i := 0; i < 40; i++ {
		sink += spinForProfile(5_000_000)
	}
	pprof.StopCPUProfile()
	_ = sink
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.stack) > 0 && s.stack[0] == "armbar/perfbench.spinForProfile" && s.value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample with spinForProfile as leaf among %d samples", len(samples))
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decodes without error")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = summarize([]float64{4, 1, 2})
	if s.q1 != 1 || s.median != 2 || s.q3 != 4 {
		t.Errorf("summarize(1,2,4) = %+v", s)
	}
}

func TestP99(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 990.99}, // statistics.quantiles(range(1, 1001), n=100)[98]
		{50, 40.8},     // ten beyond: statistics.quantiles(range(1, 51), n=50)[39]
		{19, 19},       // the maximum
		{0, 0},
	} {
		if got := p99(seq(c.n)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p99(1..%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	for _, c := range []struct {
		next   []float64
		better string
		want   string
	}{
		{[]float64{10, 10.1, 9.9, 10.02, 9.98, 10}, "lower", "within"},
		{[]float64{12, 12.1, 11.9, 12, 12.05, 11.95}, "lower", "worse"},
		{[]float64{12, 12.1, 11.9, 12, 12.05, 11.95}, "higher", "within"},
		{[]float64{8, 8.1, 7.9, 8, 8.05, 7.95}, "higher", "worse"},
		{[]float64{6, 14, 8, 12, 10, 9}, "lower", "unresolved"},
	} {
		if got := verdict(steady, c.next, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.next, c.better, got, c.want)
		}
	}
}
