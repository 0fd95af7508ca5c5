package sim_test

import (
	"math"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/metrics"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// fencedRun drives one small two-thread message-passing machine and
// returns its final virtual time.
func fencedRun(reg *metrics.Registry, tracer sim.Tracer) (*sim.Machine, float64) {
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 7})
	if tracer != nil {
		m.SetTracer(tracer)
	}
	data, flag := m.Alloc(1), m.Alloc(1)
	m.Spawn(0, func(t *sim.Thread) {
		for i := uint64(1); i <= 30; i++ {
			t.Store(data, i)
			t.Barrier(isa.DMBSt)
			t.Store(flag, i)
			t.Nops(8)
		}
	})
	m.Spawn(32, func(t *sim.Thread) {
		for i := uint64(1); i <= 30; i++ {
			for t.Load(flag) < i {
				t.Nops(4)
			}
			t.Barrier(isa.DMBLd)
			t.Load(data)
		}
	})
	finish := m.Run()
	if reg != nil {
		m.MetricsInto(reg)
	}
	return m, finish
}

func TestStatsEngineCounters(t *testing.T) {
	m, _ := fencedRun(nil, nil)
	s := m.Stats()
	if s.MaxStoreBuf == 0 {
		t.Error("store-buffer high-water mark never recorded")
	}
	if s.MaxEventHeap == 0 {
		t.Error("event-heap high-water mark never recorded")
	}
	if s.EventAllocs+s.EventReuses != s.Stores {
		t.Errorf("every store schedules one commit event: allocs %d + reuses %d != stores %d",
			s.EventAllocs, s.EventReuses, s.Stores)
	}
	if s.EventReuses == 0 {
		t.Error("free list never hit across 60 stores")
	}
}

func TestMetricsInto(t *testing.T) {
	reg := metrics.NewRegistry()
	m, _ := fencedRun(reg, nil)
	s := m.Stats()
	snap := reg.Snapshot()
	if snap.Counters["sim_machines_total"] != 1 {
		t.Fatalf("machines counter = %d", snap.Counters["sim_machines_total"])
	}
	if snap.Counters["sim_loads_total"] != s.Loads || snap.Counters["sim_stores_total"] != s.Stores {
		t.Fatalf("registry loads/stores %d/%d, stats %d/%d",
			snap.Counters["sim_loads_total"], snap.Counters["sim_stores_total"], s.Loads, s.Stores)
	}
	if hr := snap.Gauges["sim_event_freelist_hit_rate"]; hr <= 0 || hr > 1 {
		t.Fatalf("free-list hit rate = %g, want (0, 1]", hr)
	}
	if snap.Gauges["sim_virtual_cycles_total"] <= 0 {
		t.Fatal("virtual cycles never accumulated")
	}
}

func TestGlobalMetricsHook(t *testing.T) {
	reg := metrics.NewRegistry()
	sim.SetGlobalMetrics(reg)
	defer sim.SetGlobalMetrics(nil)
	fencedRun(nil, nil)
	fencedRun(nil, nil)
	if got := reg.Snapshot().Counters["sim_machines_total"]; got != 2 {
		t.Fatalf("global registry saw %d machines, want 2", got)
	}
}

// countingTracer counts events without recording them.
type countingTracer struct{ n int }

func (c *countingTracer) Event(sim.TraceEvent) { c.n++ }

func TestMachineTracerFactory(t *testing.T) {
	ct := &countingTracer{}
	sim.SetMachineTracerFactory(func() sim.Tracer { return ct })
	defer sim.SetMachineTracerFactory(nil)
	fencedRun(nil, nil)
	if ct.n == 0 {
		t.Fatal("factory-installed tracer saw no events")
	}
}

func TestMetricsTracerHistograms(t *testing.T) {
	reg := metrics.NewRegistry()
	fencedRun(nil, sim.NewMetricsTracer(reg))
	snap := reg.Snapshot()
	for _, kind := range []string{"load", "store", "commit", "barrier", "work"} {
		h, ok := snap.Histograms[`sim_op_cycles{kind="`+kind+`"}`]
		if !ok || h.Count == 0 {
			t.Errorf("no latency histogram observations for kind %q", kind)
		}
	}
}

func TestObservabilityIsHarmless(t *testing.T) {
	// The same seed must produce the same virtual time dark, with a
	// global registry, and with a per-op metrics tracer.
	_, dark := fencedRun(nil, nil)
	reg := metrics.NewRegistry()
	sim.SetGlobalMetrics(reg)
	_, lit := fencedRun(nil, nil)
	sim.SetGlobalMetrics(nil)
	_, traced := fencedRun(nil, sim.NewMetricsTracer(reg))
	if dark != lit || dark != traced {
		t.Fatalf("observability changed results: dark %g, metrics %g, traced %g", dark, lit, traced)
	}
}

// TestMetricsIntoOrderIndependent folds the same machines into two
// registries in opposite orders: pool workers finish machines in host
// order, so the summed cycle gauges must not depend on it.
func TestMetricsIntoOrderIndependent(t *testing.T) {
	var ms []*sim.Machine
	for seed := int64(1); seed <= 40; seed++ {
		m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: seed})
		a := m.Alloc(1)
		m.Spawn(0, func(t *sim.Thread) {
			t.Store(a, 1)
			t.Barrier(isa.DMBFull)
			t.Nops(int(seed))
		})
		m.Spawn(32, func(t *sim.Thread) { t.Load(a) })
		m.Run()
		ms = append(ms, m)
	}
	fwd, rev := metrics.NewRegistry(), metrics.NewRegistry()
	for i := range ms {
		ms[i].MetricsInto(fwd)
		ms[len(ms)-1-i].MetricsInto(rev)
	}
	for _, name := range []string{"sim_virtual_cycles_total", "sim_barrier_stall_cycles_total"} {
		a, b := fwd.Gauge(name).Value(), rev.Gauge(name).Value()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s depends on fold order: %v forward, %v reversed", name, a, b)
		}
	}
}
