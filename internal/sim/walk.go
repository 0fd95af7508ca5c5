package sim

import (
	"fmt"

	"armbar/internal/prog"
)

// Walk runs a micro-op program through the per-op Thread methods — the
// interpreted engine's executor for program workloads. It resolves
// operands and folds free control codes (Jump, LoopEnd) with the same
// execEnv helpers the compiled executor uses, so both engines issue
// the identical machine-visible op sequence and present the identical
// service sequence to the scheduler; the engine-differential tests and
// FuzzWalkMatchesCompiled hold them equal event for event. Spin polls
// are plain loads here: Walk never sets t.spinning, so the interpreted
// profile attributes them to their service cause rather than
// CauseSpin.
//
// Call it from a closure thread (Spawn). SpawnProgram does so under
// EngineInterp.
func Walk(t *Thread, p *prog.Program) {
	e := execEnv{ops: p.Ops, tables: p.Tables}
	for e.stepControl(); !e.done(); e.stepControl() {
		op := &e.ops[e.pc]
		e.pc++
		switch op.Code {
		case prog.Load:
			t.Load(e.addr(op))
		case prog.LoadAcq:
			t.LoadAcquire(e.addr(op))
		case prog.LoadAcqPC:
			t.LoadAcquirePC(e.addr(op))
		case prog.Store:
			t.Store(e.addr(op), e.value(op))
		case prog.StoreRel:
			t.StoreRelease(e.addr(op), e.value(op))
		case prog.FetchAdd:
			t.FetchAdd(e.addr(op), e.value(op))
		case prog.Swap:
			t.Swap(e.addr(op), e.value(op))
		case prog.CAS:
			t.CompareAndSwap(e.addr(op), op.Val, op.Val2)
		case prog.Barrier:
			t.Barrier(op.Bar)
		case prog.Work:
			t.Work(op.Cyc)
		case prog.SpinEQ:
			if t.Load(e.addr(op)) == op.Val {
				e.pc = op.Target
			}
		case prog.SpinNE:
			if t.Load(e.addr(op)) != op.Val {
				e.pc = op.Target
			}
		case prog.SpinGE:
			if t.Load(e.addr(op)) >= op.Val {
				e.pc = op.Target
			}
		default:
			panic(fmt.Sprintf("sim: Walk: unknown op code %d", op.Code))
		}
	}
}
