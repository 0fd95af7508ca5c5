package explore

import (
	"fmt"
	"sort"

	"armbar/internal/litmus"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
)

// This file is the differential bridge to the simulator: the same
// shape the explorer enumerates runs as seeded simulations, rendered
// through the identical outcome path, so sampled histograms and
// reachable sets compare directly. Sampling can only ever observe a
// subset of what the explorer reaches — the agreement gates assert
// exactly that subset relation, plus that safe placements never
// sample a forbidden outcome.

// Sample runs the shape under the placement `runs` times with seeds
// baseSeed..baseSeed+runs-1 and returns the outcome histogram. Ops
// marked Spin wait for their signal value the way the litmus tests
// do; every other op maps 1:1 onto a Thread operation.
func Sample(p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, baseSeed int64) *litmus.Result {
	res := &litmus.Result{
		Test:  fmt.Sprintf("%s%s", s.Name, pl.Describe(s)),
		Mode:  mode,
		Runs:  runs,
		Count: make(map[litmus.Outcome]int),
	}
	ops := s.program(pl)
	for r := 0; r < runs; r++ {
		m := sim.New(sim.Config{Plat: p, Mode: mode, Seed: baseSeed + int64(r)})
		addr := allocLines(m, s)
		regs := make([]uint64, len(s.Regs))
		for i, core := range s.Cores {
			i := i
			m.Spawn(core, func(t *sim.Thread) { runOps(t, ops[i], addr, regs) })
		}
		m.Run()
		res.Count[s.Outcome(regs, finalLines(m, addr))]++
	}
	return res
}

// Agreement checks one placement differentially: every sampled
// outcome must be in the explorer's reachable set. Because a safe
// placement's reachable set contains no forbidden outcome, this
// single subset check also proves sampling never observed a forbidden
// outcome wherever the explorer claims safety.
func Agreement(p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, baseSeed int64) error {
	r := exploreRun(s, pl, mode, DefaultBound, nil, false)
	res := Sample(p, s, pl, mode, runs, baseSeed)
	sampled := make([]litmus.Outcome, 0, len(res.Count))
	for o := range res.Count {
		sampled = append(sampled, o)
	}
	sort.Slice(sampled, func(i, j int) bool { return sampled[i] < sampled[j] })
	for _, o := range sampled {
		if !r.Reaches(o) {
			return fmt.Errorf("%s%s under %v: sampled outcome %q (%d/%d runs) is not explorer-reachable",
				s.Name, pl.Describe(s), mode, o, res.Count[o], runs)
		}
	}
	return nil
}

func allocLines(m *sim.Machine, s *Shape) []uint64 {
	addr := make([]uint64, s.Lines)
	for i := range addr {
		addr[i] = m.Alloc(1)
		if i < len(s.Init) && s.Init[i] != 0 {
			m.SetInitial(addr[i], s.Init[i])
		}
	}
	return addr
}

func finalLines(m *sim.Machine, addr []uint64) []uint64 {
	final := make([]uint64, len(addr))
	for i, a := range addr {
		final[i] = m.Directory().Committed(a)
	}
	return final
}

func runOps(t *sim.Thread, ops []SOp, addr []uint64, regs []uint64) {
	for _, op := range ops {
		switch op.Code {
		case SLoad:
			v := t.Load(addr[op.Addr])
			if op.Spin {
				for v != op.Val {
					v = t.Load(addr[op.Addr])
				}
			}
			if op.Obs >= 0 {
				regs[op.Obs] = v
			}
		case SLoadAcq:
			v := t.LoadAcquire(addr[op.Addr])
			if op.Spin {
				for v != op.Val {
					v = t.LoadAcquire(addr[op.Addr])
				}
			}
			if op.Obs >= 0 {
				regs[op.Obs] = v
			}
		case SStore:
			t.Store(addr[op.Addr], op.Val)
		case SBarrier:
			t.Barrier(op.Bar)
		case SSwap:
			v := t.Swap(addr[op.Addr], op.Val)
			if op.Obs >= 0 {
				regs[op.Obs] = v
			}
		}
	}
}

// Compile lowers one thread of the placed shape to a compiled-engine
// program against pre-resolved line addresses. Spin loads lower to
// SpinEQ; observed values are lost (the compiled engine has no
// register file), so compiled runs compare on final memory and
// machine stats.
func Compile(s *Shape, pl Placement, thread int, issueWidth float64, addr []uint64) (*prog.Program, error) {
	b := prog.NewBuilder(issueWidth)
	for _, op := range s.thread(thread, pl) {
		switch op.Code {
		case SLoad:
			if op.Spin {
				b.SpinEQ(prog.Abs(addr[op.Addr]), op.Val, 0)
			} else {
				b.Load(prog.Abs(addr[op.Addr]))
			}
		case SLoadAcq:
			b.LoadAcquire(prog.Abs(addr[op.Addr]))
		case SStore:
			b.Store(prog.Abs(addr[op.Addr]), prog.Imm(op.Val))
		case SBarrier:
			b.Barrier(op.Bar)
		case SSwap:
			b.Swap(prog.Abs(addr[op.Addr]), prog.Imm(op.Val))
		}
	}
	return b.Build()
}

// CompiledParity runs every seed's machine twice — interpreted thread
// closures versus SpawnProgram of the identical lowering — and
// returns an error on the first run whose final committed memory or
// operation counts diverge. It is the explorer suite's engine
// cross-check: shapes must behave identically under both engines.
func CompiledParity(p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, baseSeed int64) error {
	ops := s.program(pl)
	for r := 0; r < runs; r++ {
		seed := baseSeed + int64(r)

		mi := sim.New(sim.Config{Plat: p, Mode: mode, Seed: seed})
		ai := allocLines(mi, s)
		regs := make([]uint64, len(s.Regs))
		for i, core := range s.Cores {
			i := i
			mi.Spawn(core, func(t *sim.Thread) { runOps(t, ops[i], ai, regs) })
		}
		mi.Run()

		mc := sim.New(sim.Config{Plat: p, Mode: mode, Seed: seed})
		ac := allocLines(mc, s)
		for i, core := range s.Cores {
			pr, err := Compile(s, pl, i, p.Cost.IssueWidth, ac)
			if err != nil {
				return fmt.Errorf("%s: compile thread %d: %w", s.Name, i, err)
			}
			mc.SpawnProgram(core, pr)
		}
		mc.Run()

		fi, fc := finalLines(mi, ai), finalLines(mc, ac)
		for l := range fi {
			if fi[l] != fc[l] {
				return fmt.Errorf("%s seed %d: line %s final %d (interp) vs %d (compiled)",
					s.Name, seed, s.LineNames[l], fi[l], fc[l])
			}
		}
		si, sc := mi.Stats(), mc.Stats()
		if si.Loads != sc.Loads || si.Stores != sc.Stores || si.StaleReads != sc.StaleReads {
			return fmt.Errorf("%s seed %d: stats diverge: loads %d/%d stores %d/%d stale %d/%d",
				s.Name, seed, si.Loads, sc.Loads, si.Stores, sc.Stores, si.StaleReads, sc.StaleReads)
		}
	}
	return nil
}
