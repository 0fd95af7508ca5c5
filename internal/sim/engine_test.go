package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
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

// pauseSpinMachine is spinMachine with a pause after every poll, so
// when the watchdog fires the threads hold local work that was never
// served.
func pauseSpinMachine(threads int) *Machine {
	m := New(Config{Plat: platform.RaspberryPi4(), Mode: WMM, Seed: 3, MaxTime: 1e5})
	for i := 0; i < threads; i++ {
		addr := m.Alloc(1)
		m.Spawn(0, func(th *Thread) {
			for th.LoadAcquire(addr) != 99 { // never satisfied
				th.Nops(3 + i)
			}
		})
	}
	return m
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: the runner goroutine of the previous test may still be
// exiting when the next test starts, and must not be counted as
// present before a run and gone after it.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && same < 10; i++ {
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestWatchdogLeavesNoGoroutines pins the cleanup contract: when the
// watchdog fires, Run stops every suspended closure thread before the
// panic leaves it, so nothing of the machine outlives the failed run —
// also when threads have local work pending.
func TestWatchdogLeavesNoGoroutines(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Machine
	}{
		{"spin", spinMachine(3)},
		{"spin+pause", pauseSpinMachine(3)},
	} {
		before := settledGoroutines()
		p := runRecovered(c.m)
		if s, ok := p.(string); !ok || !strings.Contains(s, "watchdog") {
			t.Fatalf("%s: Run panicked with %v, want the watchdog report", c.name, p)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: goroutines %d before the run, %d after it", c.name, before, after)
		}
	}
}

// TestClosurePanicWithPendingWork panics in a closure's own code while
// its local work is still pending (it has not been served when the
// closure runs on), with peers holding pending work too: the panic
// must surface from Run and leave no goroutine behind.
func TestClosurePanicWithPendingWork(t *testing.T) {
	before := settledGoroutines()
	m := newTestMachine(WMM, 1)
	a := m.Alloc(1)
	for i := 0; i < 2; i++ {
		m.Spawn(topoCore(4*i), func(th *Thread) {
			for k := 0; k < 100; k++ {
				th.Load(a)
				th.Nops(5)
			}
		})
	}
	m.Spawn(8, func(th *Thread) {
		th.Load(a)
		th.Work(1e4)
		panic("workload bug")
	})
	if p := runRecovered(m); p != "workload bug" {
		t.Fatalf("Run panicked with %v, want the closure's panic", p)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d before the run, %d after it", before, after)
	}
}

// deferredWorkCases are programs placing local work where the
// scheduler serves it out of line: as a thread's first op (pending
// from prime), as its last op (the closure returns before the work is
// served), back to back (the second waits for the first), and on a
// thread that is not the run-queue minimum when it issues the work.
var deferredWorkCases = []struct {
	name    string
	threads []func(b *prog.Builder, a, c uint64)
}{
	{"first", []func(b *prog.Builder, a, c uint64){
		func(b *prog.Builder, a, c uint64) {
			b.Work(7)
			b.Store(prog.Abs(a), prog.Imm(1))
			b.Load(prog.Abs(c))
		},
		func(b *prog.Builder, a, c uint64) {
			b.Nops(9)
			b.Store(prog.Abs(c), prog.Imm(2))
			b.Load(prog.Abs(a))
		},
	}},
	{"last", []func(b *prog.Builder, a, c uint64){
		func(b *prog.Builder, a, c uint64) {
			b.Store(prog.Abs(a), prog.Imm(1))
			b.Work(300)
		},
		func(b *prog.Builder, a, c uint64) {
			b.Load(prog.Abs(a))
			b.Store(prog.Abs(c), prog.Imm(2))
			b.Nops(4)
		},
		func(b *prog.Builder, a, c uint64) {
			b.SpinNE(prog.Abs(c), 0, 2)
			b.Load(prog.Abs(a))
		},
	}},
	{"back-to-back", []func(b *prog.Builder, a, c uint64){
		func(b *prog.Builder, a, c uint64) {
			i := b.Loop(20)
			b.Store(prog.Abs(a), prog.Counter(i))
			b.Nops(3)
			b.Work(2)
			b.Nops(5)
			b.EndLoop()
		},
		func(b *prog.Builder, a, c uint64) {
			i := b.Loop(20)
			b.Load(prog.Abs(a))
			b.Work(4)
			b.Work(1)
			b.Store(prog.Abs(c), prog.Counter(i))
			b.EndLoop()
		},
	}},
	{"not-min", []func(b *prog.Builder, a, c uint64){
		// Thread 0 misses first, so it runs ahead of thread 1's cheap
		// polls and issues its work while thread 1 is the minimum.
		func(b *prog.Builder, a, c uint64) {
			i := b.Loop(10)
			b.Load(prog.Abs(c))
			b.Work(50)
			b.StoreRelease(prog.Abs(a), prog.Counter(i))
			b.Barrier(isa.DMBFull)
			b.Nops(6)
			b.EndLoop()
		},
		func(b *prog.Builder, a, c uint64) {
			i := b.Loop(60)
			b.LoadAcquire(prog.Abs(a))
			b.Nops(2)
			b.FetchAdd(prog.Abs(c), prog.Counter(i))
			b.EndLoop()
		},
	}},
}

// runDeferredWork runs one deferredWorkCases entry natively
// (SpawnProgram) or as closure threads (Walk).
func runDeferredWork(threads []func(b *prog.Builder, a, c uint64), mode Mode, seed int64, walk bool) diffRun {
	m := newTestMachine(mode, seed)
	tr := &recTracer{}
	m.SetTracer(tr)
	a, c := m.Alloc(1), m.Alloc(1)
	for i, build := range threads {
		b := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		build(b, a, c)
		p := b.MustBuild()
		if walk {
			m.Spawn(topoCore(4*i), func(th *Thread) { Walk(th, p) })
		} else {
			m.SpawnProgram(topoCore(4*i), p)
		}
	}
	elapsed := m.Run()
	final := []uint64{m.Directory().Committed(a), m.Directory().Committed(c)}
	return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, events: tr.events}
}

// TestDeferredWorkMatchesCompiled holds closure threads, whose local
// work is served out of line, to the compiled engine, which serves
// every op where it stands: equal clock, Stats (ParkWakes and
// InlineDispatches included), final memory and traced event sequence.
func TestDeferredWorkMatchesCompiled(t *testing.T) {
	defer SetDefaultEngine(EngineDefault)
	SetDefaultEngine(EngineCompiled)
	for _, c := range deferredWorkCases {
		for _, mode := range []Mode{WMM, TSO} {
			for _, seed := range []int64{1, 42} {
				comp := runDeferredWork(c.threads, mode, seed, false)
				walk := runDeferredWork(c.threads, mode, seed, true)
				sameRun(t, fmt.Sprintf("%s %v seed %d", c.name, mode, seed), walk, comp)
			}
		}
	}
}

// TestAllFinishedAtServicePoint pins AllFinished to the service order:
// the observer's check after each of its pauses must report a peer
// finished exactly when the peer's last op was served before that
// pause — what a shared counter decremented after the peer's last op
// and read after the pause reported when every op was served in place.
// One peer ends on local work (its closure returns with it pending),
// the other on a store.
func TestAllFinishedAtServicePoint(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		m := newTestMachine(WMM, seed)
		tr := &recTracer{}
		m.SetTracer(tr)
		flag := m.Alloc(1)
		peers := []*Thread{
			m.Spawn(4, func(th *Thread) {
				for k := 0; k < 30; k++ {
					th.Load(flag)
					th.Nops(7)
				}
			}),
			m.Spawn(8, func(th *Thread) {
				for k := 0; k < 25; k++ {
					th.Nops(9)
					th.Store(flag, uint64(k))
				}
			}),
		}
		var seen [][2]bool // per observer pause: peer 0 / peer 1 finished
		m.Spawn(0, func(th *Thread) {
			for {
				th.Load(flag)
				th.Nops(3)
				seen = append(seen, [2]bool{th.AllFinished(peers[:1]), th.AllFinished(peers[1:])})
				if th.AllFinished(peers) {
					return
				}
			}
		})
		m.Run()

		// Replay the service order from the trace.
		last := [2]int{-1, -1}
		for i, e := range tr.events {
			if e.Kind != TraceCommit && e.Thread < 2 {
				last[e.Thread] = i
			}
		}
		pause := 0
		for i, e := range tr.events {
			if e.Thread != 2 || e.Kind != TraceWork {
				continue
			}
			if pause >= len(seen) {
				t.Fatalf("seed %d: more observer pauses traced than checks", seed)
			}
			for p := 0; p < 2; p++ {
				if want := last[p] < i; seen[pause][p] != want {
					t.Fatalf("seed %d: after observer pause %d, AllFinished(peer %d) = %v, want %v",
						seed, pause, p, seen[pause][p], want)
				}
			}
			pause++
		}
		if pause != len(seen) || !seen[len(seen)-1][0] || !seen[len(seen)-1][1] {
			t.Fatalf("seed %d: %d pauses traced, %d checks, last %v", seed, pause, len(seen), seen[len(seen)-1])
		}
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
	before := settledGoroutines()
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
