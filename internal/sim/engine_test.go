package sim

import (
	"runtime"
	"strings"
	"testing"

	"armbar/internal/platform"
	"armbar/internal/runner"
)

// Edge cases of the scheduler: threads finishing while others wait in
// the run queue, the watchdog firing from a multi-thread dispatch,
// panics in a closure's own code, the store-buffer-full retry loop,
// and the dispatch counters.

func TestThreadFinishesWhileOthersParked(t *testing.T) {
	m := newTestMachine(WMM, 5)
	a, b, c := m.Alloc(1), m.Alloc(1), m.Alloc(1)
	var short, long1, long2 uint64
	// The short thread retires after one op while both long threads
	// still have work queued; finishThread must leave the run queue so
	// the driver serves the new minimum.
	m.Spawn(0, func(th *Thread) {
		short = th.FetchAdd(a, 1)
	})
	m.Spawn(4, func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Store(b, uint64(i))
			th.Nops(3)
		}
		long1 = th.Load(b)
	})
	m.Spawn(8, func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Store(c, uint64(i))
			th.Nops(3)
		}
		long2 = th.Load(c)
	})
	elapsed := m.Run()
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", elapsed)
	}
	if short != 0 || long1 != 199 || long2 != 199 {
		t.Fatalf("results = %d, %d, %d; want 0, 199, 199", short, long1, long2)
	}
	if m.Directory().Committed(a) != 1 {
		t.Fatalf("committed(a) = %d, want 1", m.Directory().Committed(a))
	}
}

func TestWatchdogFiresWithThreadsParked(t *testing.T) {
	// Unlike TestWatchdogPanicsOnStuckSpin (one thread, solo fast
	// path), this pins two live threads in the run queue so the
	// watchdog triggers on a thread the driver resumed; the panic must
	// still surface from Run on the caller's goroutine.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected watchdog panic")
		}
		if !strings.Contains(r.(string), "watchdog") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m := New(Config{Plat: platform.RaspberryPi4(), Mode: WMM, Seed: 3, MaxTime: 1e6})
	a, b := m.Alloc(1), m.Alloc(1)
	spin := func(addr uint64) func(*Thread) {
		return func(th *Thread) {
			for th.Load(addr) != 99 { // never satisfied
			}
		}
	}
	m.Spawn(0, spin(a))
	m.Spawn(1, spin(b))
	m.Run()
}

// spinMachine builds a machine whose threads spin on flags nobody
// sets, so the watchdog trips once a clock passes MaxTime.
func spinMachine(threads int) *Machine {
	m := New(Config{Plat: platform.RaspberryPi4(), Mode: WMM, Seed: 3, MaxTime: 1e6})
	for i := 0; i < threads; i++ {
		addr := m.Alloc(1)
		m.Spawn(0, func(th *Thread) {
			for th.Load(addr) != 99 { // never satisfied
			}
		})
	}
	return m
}

// runRecovered runs m and returns what Run panicked with, or nil.
func runRecovered(m *Machine) (p any) {
	defer func() { p = recover() }()
	m.Run()
	return nil
}

// TestWatchdogLeavesNoGoroutines pins the cleanup contract: when the
// watchdog fires, Run stops every suspended closure thread before the
// panic leaves it, so nothing of the machine outlives the failed run.
func TestWatchdogLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := runRecovered(spinMachine(3))
	if s, ok := p.(string); !ok || !strings.Contains(s, "watchdog") {
		t.Fatalf("Run panicked with %v, want the watchdog report", p)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d before the run, %d after it", before, after)
	}
}

// boom is a closure-thread body that panics in its own Go code,
// between two ops, while a peer thread is still waiting to run.
func boom(th *Thread) {
	th.Work(10)
	if th.Now() > 0 {
		panic("workload bug")
	}
	th.Work(10)
}

// TestClosurePanicSurfacesFromRun checks that a panic raised by a
// closure thread's own code, not inside an op, comes out of Run on the
// caller's goroutine and leaves no goroutine behind.
func TestClosurePanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newTestMachine(WMM, 1)
	a := m.Alloc(1)
	m.Spawn(0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Load(a)
		}
	})
	m.Spawn(4, boom)
	if p := runRecovered(m); p != "workload bug" {
		t.Fatalf("Run panicked with %v, want the closure's panic", p)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d before the run, %d after it", before, after)
	}
}

// TestClosurePanicIsCellError runs the same failing machine as one
// runner cell: the panic must fail only that cell, as its Future.Err.
func TestClosurePanicIsCellError(t *testing.T) {
	pool := runner.New(2)
	defer pool.Close()
	run := func(bad bool) func() float64 {
		return func() float64 {
			m := newTestMachine(WMM, 1)
			m.Spawn(0, func(th *Thread) { th.Work(50) })
			if bad {
				m.Spawn(4, boom)
			}
			return m.Run()
		}
	}
	good, failed := runner.Submit(pool, run(false)), runner.Submit(pool, run(true))
	if err := good.Err(); err != nil {
		t.Fatalf("healthy cell failed: %v", err)
	}
	err := failed.Err()
	if err == nil || !strings.Contains(err.Error(), "workload bug") {
		t.Fatalf("failing cell's Err = %v, want the closure's panic", err)
	}
}

func TestStoreBufferFullRetry(t *testing.T) {
	// A store burst far beyond the buffer capacity forces process to
	// return false (issue stalls until a slot drains); under direct
	// dispatch the thread must stay queued with its advanced clock and
	// retry, never losing a store.
	m := newTestMachine(WMM, 9)
	entries := m.cfg.Plat.Cost.StoreBufferEntries
	burst := 6 * entries
	a := m.Alloc(burst)
	peer := m.Alloc(1)
	m.Spawn(0, func(th *Thread) {
		for i := 0; i < burst; i++ {
			th.Store(a+uint64(i)<<6, uint64(i)+1)
		}
	})
	// A second thread keeps the run queue in play so retries exercise
	// the heap-fix path rather than the solo loop.
	m.Spawn(4, func(th *Thread) {
		for i := 0; i < burst; i++ {
			th.Store(peer, uint64(i))
		}
	})
	m.Run()
	for i := 0; i < burst; i++ {
		if got := m.Directory().Committed(a + uint64(i)<<6); got != uint64(i)+1 {
			t.Fatalf("committed(line %d) = %d, want %d", i, got, i+1)
		}
	}
	if got := m.Stats().MaxStoreBuf; got != entries {
		t.Fatalf("MaxStoreBuf = %d, want the full capacity %d", got, entries)
	}
}

func TestDispatchCountersSolo(t *testing.T) {
	m := newTestMachine(WMM, 1)
	a := m.Alloc(1)
	const ops = 50
	m.Spawn(0, func(th *Thread) {
		for i := 0; i < ops; i++ {
			th.Load(a)
		}
	})
	m.Run()
	s := m.Stats()
	// One thread serves every op: only the first changes the serving
	// thread, everything after runs inline.
	if s.ParkWakes != 1 || s.InlineDispatches != ops-1 {
		t.Fatalf("solo counters = inline %d / wakes %d, want %d / 1",
			s.InlineDispatches, s.ParkWakes, ops-1)
	}
}

func TestDispatchCountersTwoThreads(t *testing.T) {
	run := func() Stats {
		m := newTestMachine(WMM, 13)
		a, b := m.Alloc(1), m.Alloc(1)
		body := func(addr uint64) func(*Thread) {
			return func(th *Thread) {
				for i := 0; i < 100; i++ {
					th.Load(addr)
				}
			}
		}
		m.Spawn(0, body(a))
		m.Spawn(4, body(b))
		m.Run()
		return m.Stats()
	}
	s := run()
	if s.InlineDispatches+s.ParkWakes != 200 {
		t.Fatalf("inline %d + wakes %d = %d, want 200 (one per op)",
			s.InlineDispatches, s.ParkWakes, s.InlineDispatches+s.ParkWakes)
	}
	if s.ParkWakes < 2 {
		t.Fatalf("ParkWakes = %d, want >= 2 with two interleaving threads", s.ParkWakes)
	}
	// The split is derived from the service order, so it must be as
	// deterministic as the rest of Stats.
	if s2 := run(); s2 != s {
		t.Fatalf("dispatch counters not deterministic:\n%+v\n%+v", s, s2)
	}
}
