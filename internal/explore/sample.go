package explore

import (
	"fmt"
	"sort"
	"strings"

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

// Histogram counts the outcomes of seeded sample runs.
type Histogram struct {
	Test  string
	Mode  sim.Mode
	Runs  int
	Count map[Outcome]int
}

// String renders the histogram sorted by outcome.
func (h *Histogram) String() string {
	keys := make([]string, 0, len(h.Count))
	for k := range h.Count {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %v (%d runs):\n", h.Test, h.Mode, h.Runs)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %6d\n", k, h.Count[Outcome(k)])
	}
	return b.String()
}

// Sample runs the shape under the placement `runs` times with seeds
// baseSeed..baseSeed+runs-1 and returns the outcome histogram. Each
// thread runs its Compile lowering through Machine.SpawnProgram, and
// observed values come back through the thread's registers.
func Sample(p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, baseSeed int64) (*Histogram, error) {
	res := &Histogram{
		Test:  fmt.Sprintf("%s%s", s.Name, pl.Describe(s)),
		Mode:  mode,
		Runs:  runs,
		Count: make(map[Outcome]int),
	}
	regs := make([]uint64, len(s.Regs))
	threads := make([]*sim.Thread, len(s.Cores))
	for r := 0; r < runs; r++ {
		m := sim.New(sim.Config{Plat: p, Mode: mode, Seed: baseSeed + int64(r)})
		addr := allocLines(m, s)
		for i, core := range s.Cores {
			pr, err := Compile(s, pl, i, p.Cost.IssueWidth, addr)
			if err != nil {
				return nil, err
			}
			threads[i] = m.SpawnProgram(core, pr)
		}
		m.Run()
		for i, ops := range s.Threads {
			for _, op := range ops {
				if op.Obs >= 0 {
					regs[op.Obs] = threads[i].Reg(op.Obs + 1)
				}
			}
		}
		res.Count[s.Outcome(regs, finalLines(m, addr))]++
	}
	return res, nil
}

// Agreement checks one placement differentially: every sampled
// outcome must be in the explorer's reachable set. Because a safe
// placement's reachable set contains no forbidden outcome, this
// single subset check also proves sampling never observed a forbidden
// outcome wherever the explorer claims safety.
func Agreement(p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, baseSeed int64) error {
	res, err := Sample(p, s, pl, mode, runs, baseSeed)
	if err != nil {
		return err
	}
	r := exploreRun(s, pl, mode, DefaultBound, nil, false)
	sampled := make([]Outcome, 0, len(res.Count))
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

// Compile lowers one thread of the placed shape to a program against
// pre-resolved line addresses. A load or swap observed into register
// Obs writes program register Obs+1 (register 0 discards); Obs on a
// store or barrier is a build error. A Spin load lowers to SpinEQ;
// Spin on any other code is an error, because prog has no acquire or
// atomic spin.
func Compile(s *Shape, pl Placement, thread int, issueWidth float64, addr []uint64) (*prog.Program, error) {
	b := prog.NewBuilder(issueWidth)
	for _, op := range s.thread(thread, pl) {
		if op.Spin && op.Code != SLoad {
			return nil, fmt.Errorf("explore: %s thread %d: Spin on op code %d: only a plain load can spin",
				s.Name, thread, op.Code)
		}
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
		if op.Obs >= 0 {
			b.Dest(op.Obs + 1)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("explore: %s thread %d: %w", s.Name, thread, err)
	}
	return p, nil
}
