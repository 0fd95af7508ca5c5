package sim

import "errors"

// This file is the scheduler: one driver loop, run by Machine.Run on
// the caller's goroutine, serves every simulated thread in global
// min-(virtual time, id) order, so a machine never executes on more
// than one goroutine at a time.
//
//   - A compiled thread (SpawnProgram) is stepped by the driver itself,
//     from the execEnv kept on its Thread (see stepProgram).
//   - A closure thread (Spawn) runs as a coroutine (coro.go). Each
//     memory access or barrier it issues enters dispatch, which
//     executes the op inline as a plain function call while the thread
//     is the run queue's minimum — on a one-thread machine that is
//     every op — and otherwise yields to the driver, which resumes
//     whichever thread is the new minimum.
//   - Local work (Thread.Nops/Work) does not yield. It touches only the
//     thread's own clock, so the clock advances at once and the
//     closure runs on to its next op, while the work stays pending at
//     the thread's old run-queue key. When that key is the minimum,
//     the work is served there — by the driver (serveDeferred), or
//     inline by the thread itself if it is already the minimum — with
//     exactly the bookkeeping it would have had as an ordinary op.
//
// Whenever the driver picks, every live thread sits in the run queue
// keyed on the time of its next unserved op: each peer waits at that
// op, or — after local work — has run ahead to the op behind it. Every
// op therefore runs only once every live thread has one pending and it
// belongs to the minimum thread, so the service order — and with it
// the rng draw sequence and every simulated number — depends only on
// the seed, never on the host. A closure's own Go code runs at its
// service point, except after local work, where it runs before that
// work is served; Machine.Spawn states what closures may share.
//
// A panic inside an op or in a closure's own Go code (the MaxTime
// watchdog, a bad barrier value, a workload bug) unwinds out of Run on
// the caller's goroutine; Run stops the suspended coroutines on the
// way out, so a failed machine leaves no goroutines behind.

// errStopped unwinds a suspended closure thread whose machine stopped
// after a panic elsewhere (see stopThreads); its coroutine recovers it.
var errStopped = errors.New("sim: machine stopped")

// drive serves threads until every one has finished. A closure thread
// finishes wherever its closure returns, which need not be at the
// head of the queue, so it is popped once it surfaces as the minimum.
// A closure thread that surfaces with a local op pending has its op
// served here, with no switch into its coroutine: the closure already
// ran past it and waits at its next op (resumed once the thread is the
// minimum at its new clock), in AllFinished (resumed right away), or
// has returned (finished now).
func (m *Machine) drive() {
	for m.runq.len() > 0 {
		t := m.runq.min()
		switch {
		case t.finished:
			m.runq.popMin()
		case t.compiled:
			m.stepProgram(t)
		case t.workPending:
			m.serveDeferred(t)
			if t.returned {
				m.finishThread(t)
			} else if t.wakeOnServe {
				m.resume(t)
			}
		default:
			m.resume(t)
		}
	}
}

// resume switches into a closure thread until it suspends again. A
// closure that returns finishes at once, or — with a local op still
// pending — once the driver has served that op.
func (m *Machine) resume(t *Thread) {
	if _, ok := t.next(); !ok {
		t.returned = true
		if !t.workPending {
			m.finishThread(t)
		}
	}
}

// prime readies a spawned thread for the driver: a closure thread's
// coroutine starts and runs up to its first op that needs the thread's
// turn (past any leading local work, which stays pending at the
// thread's start time), a program folds its leading control codes. A
// thread with an op pending joins the run queue; one with none
// finishes at once.
func (m *Machine) prime(t *Thread) {
	if t.primed {
		return
	}
	t.primed = true
	if t.compiled {
		t.env.stepControl()
		if t.env.done() {
			m.finishThread(t)
			return
		}
	} else {
		t.start()
		if m.resume(t); t.finished {
			return
		}
	}
	m.runq.push(t)
}

// dispatch runs the op staged in t.req on the calling coroutine once
// t is the run queue's minimum, yielding to the driver until then, and
// returns its result.
func (t *Thread) dispatch() uint64 {
	m := t.m
	for {
		t.await()
		if t.now > m.cfg.MaxTime {
			m.fatalStuck(t)
		}
		ok := m.process(&t.req)
		m.runq.fixMin()
		if ok {
			return t.req.result
		}
		// The op only advanced this thread's clock (waiting for its
		// own store buffer); retry once it is the minimum again, so
		// commits apply in global time order.
	}
}

// await returns once t has no local op pending and is the run queue's
// minimum. A pending op is served inline if t is the minimum at its
// key, and by the driver otherwise.
func (t *Thread) await() {
	m := t.m
	for {
		if !m.runq.isMin(t) {
			t.suspend()
			continue
		}
		if !t.workPending {
			return
		}
		m.serveDeferred(t)
	}
}

// serveDeferred serves t's pending local op at its key, with t the run
// queue's minimum: the bookkeeping process performs for any op, with
// the clock advance already done by Thread.work. It then re-keys t on
// its advanced clock.
func (m *Machine) serveDeferred(t *Thread) {
	start := t.workStart
	if start > m.cfg.MaxTime {
		m.fatalStuck(t)
	}
	t.workPending = false
	m.retireStores(start)
	m.now = start
	m.emit(t, TraceWork, 0, start, t.now, "")
	m.noteServed(t)
	m.runq.fixMin()
}

// suspend yields to the driver, which resumes the thread once it is
// the run queue's minimum. If the machine stops instead, the closure
// unwinds with errStopped.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(errStopped)
	}
}

// stepProgram runs a compiled thread's ops while it stays the run
// queue's minimum; with one live thread that is the whole program.
func (m *Machine) stepProgram(t *Thread) {
	e := &t.env
	for {
		if t.now > m.cfg.MaxTime {
			m.fatalStuck(t)
		}
		m.execStep(t, e)
		if e.done() {
			m.runq.popMin()
			m.finishThread(t)
			return
		}
		m.runq.fixMin()
		if !m.runq.isMin(t) {
			return
		}
	}
}

// finishThread retires a thread whose closure returned or whose
// program ran out: its stores drain. The driver drops it from the run
// queue once it reaches the head.
func (m *Machine) finishThread(t *Thread) {
	t.finished = true
	if t.now > m.finish {
		m.finish = t.now
	}
	m.retireStores(t.now)
}

// stopThreads ends every closure thread still suspended, so a run
// that panicked leaves no coroutine behind. The run queue is emptied
// first: no thread is the minimum any more, so a stopped closure that
// issues another op while unwinding is stopped again.
func (m *Machine) stopThreads() {
	m.runq.s = nil
	for _, t := range m.threads {
		if t.stop != nil && !t.finished {
			t.stop()
		}
	}
}

// fatalStuck is the watchdog's exit: building the report string and
// boxing it into a panic value stay out of dispatch, which must remain
// allocation-free on its live paths.
//
//go:noinline
func (m *Machine) fatalStuck(t *Thread) {
	panic(m.stuckReport(t))
}

// noteServed maintains the dispatch counters from the (deterministic)
// service sequence: consecutive ops by one thread ran back to back
// with no switch of serving thread (InlineDispatches), while a change
// of thread is counted as one park and wake (ParkWakes). Deriving the
// split from the sequence keeps Stats independent of how the host
// executes the threads, so identical seeds produce identical Stats.
func (m *Machine) noteServed(t *Thread) {
	if m.lastServed == t {
		m.stats.InlineDispatches++
		return
	}
	m.stats.ParkWakes++
	m.lastServed = t
}

// runHeap is a min-heap of the live threads keyed on (now, id) —
// (time, id) pairs are unique, so the minimum (the next thread to
// serve) is unambiguous. Each entry carries a copy of its thread's
// key, so sifting compares contiguous entries instead of loading
// clocks out of the thread arena. Only the thread being served — the
// minimum — ever changes its key, so re-keying is one sift-down from
// the root.
type runHeap struct{ s []runEntry }

type runEntry struct {
	now float64
	id  int
	t   *Thread
}

func (h *runHeap) len() int { return len(h.s) }

// min returns the next thread to serve without removing it.
func (h *runHeap) min() *Thread { return h.s[0].t }

// isMin reports whether t is queued and the next thread to serve.
func (h *runHeap) isMin(t *Thread) bool { return len(h.s) > 0 && h.s[0].t == t }

func runLess(a, b *runEntry) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.id < b.id
}

// push queues t keyed on its clock, or on the start of its pending
// local op.
func (h *runHeap) push(t *Thread) {
	now := t.now
	if t.workPending {
		now = t.workStart
	}
	h.s = append(h.s, runEntry{now: now, id: t.id, t: t})
	s := h.s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !runLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// fixMin re-keys the minimum from its thread's clock.
func (h *runHeap) fixMin() {
	h.s[0].now = h.s[0].t.now
	h.down()
}

// popMin removes the minimum.
func (h *runHeap) popMin() {
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s[n] = runEntry{}
	h.s = h.s[:n]
	if n > 0 {
		h.down()
	}
}

// down sifts the root entry to its place.
func (h *runHeap) down() {
	s := h.s
	n := len(s)
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && runLess(&s[l], &s[small]) {
			small = l
		}
		if r < n && runLess(&s[r], &s[small]) {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}
