package sim

import (
	"fmt"

	"armbar/internal/prog"
	"armbar/internal/topo"
)

// This file is the compiled engine's executor. A thread spawned with
// SpawnProgram runs a precompiled micro-op program (package prog)
// instead of a Go closure: operands are pre-resolved, so each
// machine-visible op dispatches through the per-opcode function table
// below with no request staging and no per-op switch, and free control
// codes (jumps, counted-loop backedges) fold into pc updates between
// dispatches. The scheduler's driver steps a program directly, with no
// coroutine (stepProgram in sched.go), under the same rules as a
// closure thread: ops are serviced in global min-(now, id) order,
// retries advance only the thread's clock, and noteServed sees the
// identical service sequence — which is why the golden digests and the
// differential engine test hold bit-for-bit across engines.

// SpawnProgram starts a simulated thread pinned to the given core
// executing the program on the process-wide engine: natively under
// the compiled engine, or as a closure thread running Walk under
// EngineInterp. It is the one place a program workload's engine is
// chosen. Like Spawn, it must be called before Run. The program must
// validate; programs built by prog.Builder always do.
func (m *Machine) SpawnProgram(core topo.CoreID, p *prog.Program) *Thread {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: SpawnProgram: %v", err))
	}
	if EngineDefault.Resolve() == EngineInterp {
		return m.Spawn(core, func(t *Thread) { Walk(t, p) })
	}
	t := m.spawn(core)
	t.compiled = true
	t.env = execEnv{ops: p.Ops, tables: p.Tables}
	return t
}

// execEnv is the executor's per-run state: the flat op array, the
// program counter, and the loop counters. It lives on the Thread in
// the machine's arena — running a program allocates nothing.
type execEnv struct {
	ops      []prog.Op
	tables   [][]uint64
	pc       int32
	counters [prog.MaxLoopDepth]int64
}

// addr resolves a memory op's address: an immediate, or an address
// ring indexed by the op's loop counter.
func (e *execEnv) addr(op *prog.Op) uint64 {
	if op.AMode == prog.AddrImm {
		return op.Addr
	}
	tab := e.tables[op.Addr]
	return tab[uint64(e.counters[op.Dep])%uint64(len(tab))]
}

// value resolves a store/atomic value: an immediate or the iteration
// index.
func (e *execEnv) value(op *prog.Op) uint64 {
	if op.VMode == prog.ValImm {
		return op.Val
	}
	return uint64(e.counters[op.Dep])
}

// stepControl folds free control codes (Jump, LoopEnd) into pc and
// counter updates until the program counter rests on a machine-visible
// op or past the end. These correspond to Go-level control flow in the
// interpreted engine and consume no simulated time. The transition
// bound catches malformed control cycles (a program of only jumps)
// instead of hanging.
func (e *execEnv) stepControl() {
	steps := 0
	for int(e.pc) < len(e.ops) {
		op := &e.ops[e.pc]
		switch op.Code {
		case prog.Jump:
			e.pc = op.Target
		case prog.LoopEnd:
			c := e.counters[op.Dep] + 1
			if c < op.Count {
				e.counters[op.Dep] = c
				e.pc = op.Target
			} else {
				e.counters[op.Dep] = 0
				e.pc++
			}
		default:
			return
		}
		if steps++; steps > len(e.ops) {
			badControlCycle()
		}
	}
}

//go:noinline
func badControlCycle() {
	panic("sim: compiled program loops forever in free control ops")
}

// done reports whether the program has run to completion.
func (e *execEnv) done() bool { return int(e.pc) >= len(e.ops) }

// execStep dispatches the machine-visible op at pc. When the op could
// not run yet it only advances the thread's clock (same retry contract
// as process); on success it advances pc and folds any following
// control ops.
func (m *Machine) execStep(t *Thread, e *execEnv) {
	m.retireStores(t.now)
	m.now = t.now
	op := &e.ops[e.pc]
	if opExec[op.Code](m, t, e, op) {
		m.noteServed(t)
		e.stepControl()
	}
}

// opExec is the compiled engine's dispatch table: one function per
// machine-visible opcode, mirroring the corresponding case of
// Machine.process exactly (clock updates, stats, trace emissions, rng
// draw order). Control codes never reach dispatch — stepControl folds
// them — so their slots stay nil.
var opExec = [prog.NumCodes]func(*Machine, *Thread, *execEnv, *prog.Op) bool{
	prog.Load:      execLoad,
	prog.LoadAcq:   execLoadAcq,
	prog.LoadAcqPC: execLoadAcqPC,
	prog.Store:     execStore,
	prog.StoreRel:  execStoreRel,
	prog.Barrier:   execBarrier,
	prog.Work:      execWork,
	prog.FetchAdd:  execFetchAdd,
	prog.Swap:      execSwap,
	prog.CAS:       execCAS,
	prog.SpinEQ:    execSpinEQ,
	prog.SpinNE:    execSpinNE,
	prog.SpinGE:    execSpinGE,
}

func execLoad(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	m.doLoad(t, a, false)
	m.emit(t, TraceLoad, a, start, t.now, "")
	e.pc++
	return true
}

func execLoadAcq(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	m.doLoad(t, a, true)
	m.emit(t, TraceLoad, a, start, t.now, "acquire")
	e.pc++
	return true
}

func execLoadAcqPC(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	m.doLoad(t, a, true)
	// RCpc: keep the in-flight horizon at the load's issue so later
	// independent misses still overlap it.
	t.prevLoadIssue = start
	m.emit(t, TraceLoad, a, start, t.now, "acquire-pc")
	e.pc++
	return true
}

// storeStall is the shared full-buffer retry: issue stalls until the
// earliest pending commit; the thread re-enters at its new time so
// intervening commits apply in order.
func storeStall(t *Thread) bool {
	if t.buf.Full() {
		if min := t.buf.MinCommit(); min > t.now {
			t.stats.BarrierStalled += min - t.now
			t.advTo(CauseSBDrain, min)
			return true
		}
	}
	return false
}

func execStore(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	if storeStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	m.doStore(t, a, e.value(op), false)
	m.emit(t, TraceStore, a, start, t.now, "")
	e.pc++
	return true
}

func execStoreRel(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	if storeStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	m.doStore(t, a, e.value(op), true)
	m.emit(t, TraceStore, a, start, t.now, "release")
	e.pc++
	return true
}

func execBarrier(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	m.doBarrier(t, op.Bar)
	m.emit(t, TraceBarrier, 0, start, t.now, op.Bar.String())
	e.pc++
	return true
}

func execWork(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	t.advBy(CauseWork, op.Cyc)
	m.emit(t, TraceWork, 0, start, t.now, "")
	e.pc++
	return true
}

// rmwStall is the shared release-half retry: earlier stores must have
// drained before an acquire-release atomic runs.
func rmwStall(t *Thread) bool {
	if need := maxf(t.buf.MaxCommit(), t.storeFloor); need > t.now {
		t.stats.BarrierStalled += need - t.now
		t.advTo(CauseSBDrain, need)
		return true
	}
	return false
}

func execFetchAdd(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	return execRMW(m, t, e, op, opFetchAdd)
}

func execSwap(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	return execRMW(m, t, e, op, opSwap)
}

func execCAS(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	return execRMW(m, t, e, op, opCAS)
}

func execRMW(m *Machine, t *Thread, e *execEnv, op *prog.Op, kind opKind) bool {
	if rmwStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	m.doRMW(t, kind, a, e.value(op), op.Val2)
	m.emit(t, TraceRMW, a, start, t.now, "")
	e.pc++
	return true
}

func execSpinEQ(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	// Spin-wait loads attribute to CauseSpin, not their service cause:
	// the spinning flag remaps inside the attribution helpers and never
	// touches the simulation itself.
	t.spinning = true
	v := m.doLoad(t, a, false)
	t.spinning = false
	m.emit(t, TraceLoad, a, start, t.now, "")
	if v == op.Val {
		e.pc = op.Target
	} else {
		e.pc++
	}
	return true
}

func execSpinNE(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	t.spinning = true
	v := m.doLoad(t, a, false)
	t.spinning = false
	m.emit(t, TraceLoad, a, start, t.now, "")
	if v != op.Val {
		e.pc = op.Target
	} else {
		e.pc++
	}
	return true
}

func execSpinGE(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	t.spinning = true
	v := m.doLoad(t, a, false)
	t.spinning = false
	m.emit(t, TraceLoad, a, start, t.now, "")
	if v >= op.Val {
		e.pc = op.Target
	} else {
		e.pc++
	}
	return true
}
