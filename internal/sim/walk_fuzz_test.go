package sim

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/prog"
	"armbar/internal/topo"
)

// FuzzWalkMatchesCompiled holds the two program executors equal on
// generated programs: the bytes decode into 1-3 threads of
// Builder-valid programs over at most 4 lines (every non-spin opcode,
// nested counted loops including zero-trip ones, ring-addressed
// operands and counter values, destination registers on the
// value-returning ops), and running them natively through SpawnProgram
// and as closure threads through Walk must give the same clock, stats,
// final memory, registers and traced event sequence under WMM and TSO. Spins are left out so every program terminates. The committed
// corpus in testdata/fuzz replays on every `go test`; explore more with
//
//	go test -run '^$' -fuzz FuzzWalkMatchesCompiled ./internal/sim
func FuzzWalkMatchesCompiled(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		defer SetDefaultEngine(EngineDefault)
		SetDefaultEngine(EngineCompiled)
		for _, mode := range []Mode{WMM, TSO} {
			comp := runFuzzPrograms(data, mode, false)
			walk := runFuzzPrograms(data, mode, true)
			sameRun(t, mode.String(), walk, comp)
		}
	})
}

// runFuzzPrograms decodes data on a fresh machine and runs the
// programs through Walk or natively, observing everything diffRun
// holds.
func runFuzzPrograms(data []byte, mode Mode, walk bool) diffRun {
	r := &fuzzBytes{data: data}
	m := newTestMachine(mode, int64(r.next()))
	tr := &recTracer{}
	m.SetTracer(tr)
	lines, progs, cores := decodeFuzzPrograms(r, m)
	threads := make([]*Thread, len(progs))
	for i, p := range progs {
		if walk {
			threads[i] = m.Spawn(cores[i], func(th *Thread) { Walk(th, p) })
		} else {
			threads[i] = m.SpawnProgram(cores[i], p)
		}
	}
	elapsed := m.Run()
	final := make([]uint64, len(lines))
	for k, a := range lines {
		final[k] = m.Directory().Committed(a)
	}
	var regs []uint64
	for _, th := range threads {
		for i := 0; i < prog.NumRegs; i++ {
			regs = append(regs, th.Reg(i))
		}
	}
	return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, regs: regs, events: tr.events}
}

// fuzzBytes reads the fuzz input front to back; past the end it reads
// zeros, so every input decodes.
type fuzzBytes struct {
	data []byte
	i    int
}

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

// Fuzz opcodes: one per non-spin program opcode, plus loop open and
// close.
const (
	fzLoad = iota
	fzLoadAcq
	fzLoadAcqPC
	fzStore
	fzStoreRel
	fzFetchAdd
	fzSwap
	fzCAS
	fzBarrier
	fzNops
	fzWork
	fzLoop
	fzEndLoop
	fzNumOps
)

const (
	fuzzMaxOps   = 16 // opcodes per thread
	fuzzMaxDepth = 3  // loop nesting
	fuzzMaxTrips = 4  // iterations per loop (0 included)
)

// decodeFuzzPrograms allocates 1-4 lines on m and decodes 1-3 thread
// programs over them, with the cores they run on.
func decodeFuzzPrograms(r *fuzzBytes, m *Machine) ([]uint64, []*prog.Program, []topo.CoreID) {
	nthreads := 1 + int(r.next()%3)
	nlines := 1 + int(r.next()%4)
	stride := 1 + int(r.next()%20) // thread i runs on core i*stride
	base := m.Alloc(nlines)
	lines := make([]uint64, nlines)
	for k := range lines {
		lines[k] = base + uint64(k)<<6
	}
	var bars []isa.Barrier
	for _, b := range isa.All() {
		if b != isa.LDAR && b != isa.STLR && b != isa.LDAPR {
			bars = append(bars, b)
		}
	}
	progs := make([]*prog.Program, nthreads)
	cores := make([]topo.CoreID, nthreads)
	for i := range progs {
		cores[i] = topo.CoreID(i * stride)
		b := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		depth := 0
		// operand and value decode an address and a value that share
		// one loop counter, as the Builder requires of a single op, and
		// a destination register (0 discards) from the same two bytes.
		operand := func() (prog.Operand, prog.Value, int) {
			ab, vb := r.next(), r.next()
			reg := int(ab^vb) % prog.NumRegs
			if depth == 0 {
				return prog.Abs(lines[int(ab>>1)%nlines]), prog.Imm(uint64(vb >> 1)), reg
			}
			dep := int(ab>>5) % depth
			o := prog.Abs(lines[int(ab>>1)%nlines])
			if ab&1 == 1 {
				n, off := 1+int(ab>>1)%nlines, int(ab>>3)%nlines
				ring := make([]uint64, n)
				for k := range ring {
					ring[k] = lines[(off+k)%nlines]
				}
				o = prog.Ring(b.Table(ring), dep)
			}
			v := prog.Imm(uint64(vb >> 1))
			if vb&1 == 1 {
				v = prog.Counter(dep)
			}
			return o, v, reg
		}
		dest := func(reg int) {
			if reg != 0 {
				b.Dest(reg)
			}
		}
		nops := 1 + int(r.next()%fuzzMaxOps)
		for k := 0; k < nops; k++ {
			switch r.next() % fzNumOps {
			case fzLoad:
				o, _, reg := operand()
				b.Load(o)
				dest(reg)
			case fzLoadAcq:
				o, _, reg := operand()
				b.LoadAcquire(o)
				dest(reg)
			case fzLoadAcqPC:
				o, _, reg := operand()
				b.LoadAcquirePC(o)
				dest(reg)
			case fzStore:
				o, v, _ := operand()
				b.Store(o, v)
			case fzStoreRel:
				o, v, _ := operand()
				b.StoreRelease(o, v)
			case fzFetchAdd:
				o, v, reg := operand()
				b.FetchAdd(o, v)
				dest(reg)
			case fzSwap:
				o, v, reg := operand()
				b.Swap(o, v)
				dest(reg)
			case fzCAS:
				o, _, reg := operand()
				b.CompareAndSwap(o, uint64(r.next()%4), uint64(r.next()%4))
				dest(reg)
			case fzBarrier:
				b.Barrier(bars[int(r.next())%len(bars)])
			case fzNops:
				b.Nops(int(r.next() % 8))
			case fzWork:
				b.Work(float64(r.next() % 16))
			case fzLoop:
				if depth < fuzzMaxDepth {
					b.Loop(int(r.next() % (fuzzMaxTrips + 1)))
					depth++
				}
			case fzEndLoop:
				if depth > 0 {
					b.EndLoop()
					depth--
				}
			}
		}
		for ; depth > 0; depth-- {
			b.EndLoop()
		}
		progs[i] = b.MustBuild()
	}
	return lines, progs, cores
}
