package explore

import (
	"sync/atomic"

	"armbar/internal/isa"
	"armbar/internal/litmus"
	"armbar/internal/metrics"
)

// This file is the explorer's engine: an iterative worklist search
// over compressed states (see pack.go for the two representations).
// It mutates exactly two flat scratch states — the frame being
// expanded and the successor under construction — and touches the
// heap only through the packed visited table and the flat frame
// stack, both of which reach steady-state capacity early. The visit
// loop (pop → mutate scratch → pack → probe → push) allocates
// nothing; allocvet pins it. Popping a frame is one memmove — the
// stack holds flat states, so no decode step exists on the hot path
// at all.
//
// It is the only implementation of the abstract semantics (see the
// package comment). Verdicts, reachable sets and witnesses all come
// from it: a witness is a second, sequential pass in recording mode
// (record.go), which notes each new state's parent and the step that
// reached it.

// fop is a placed op pre-lowered against the layout: the address fits
// a byte and the store/swap value is replaced by its dictionary
// index, so the visit loop never consults the dictionary.
type fop struct {
	code SCode
	addr uint8
	vidx uint8 // dictionary index of Val (SStore/SSwap)
	obs  int8  // destination register, -1 = discarded
	bar  isa.Barrier
}

// fastExplorer runs the compressed search for one (program, mode,
// bound).
type fastExplorer struct {
	shape *Shape
	pl    Placement
	ops   [][]SOp // placed program (layout input)
	fops  [][]fop // the same program lowered against the layout
	tso   bool
	bound int
	lay   layout

	table  *vtable
	stack  []byte   // flat frames, lay.stride bytes each
	cur    []byte   // frame being expanded
	next   []byte   // successor scratch
	pbuf   []uint64 // pack scratch, lay.words
	writes []int    // layout-build scratch

	rawRegs []uint64 // terminal rendering scratch (dictionary-decoded)
	rawMem  []uint64

	sigs         map[uint64]struct{} // terminal signatures already rendered
	outcomes     map[litmus.Outcome]bool
	forbidden    map[litmus.Outcome]bool
	sawForbidden bool

	// Witness recording (record.go); rec is nil when recording is off.
	rec   []wrec         // per visited state, in insertion order
	ids   []int32        // state id of each frame on the stack
	curID int32          // state id of the frame being expanded
	hitID int32          // first forbidden terminal's state id
	hit   litmus.Outcome // and its outcome
}

// newFastExplorer builds an engine for one placed program. A non-nil
// re recycles a previous engine's slabs — visited table (an epoch
// bump, keeping the grown capacity), program and lowering buffers,
// scratch states, frame stack and result maps — which is how a
// Minimize walk pays the allocations once for the whole lattice
// instead of once per placement.
func newFastExplorer(s *Shape, pl Placement, tso bool, bound int, re *fastExplorer) *fastExplorer {
	x := re
	if x == nil {
		x = &fastExplorer{
			sigs:      make(map[uint64]struct{}),
			outcomes:  make(map[litmus.Outcome]bool),
			forbidden: make(map[litmus.Outcome]bool),
		}
	} else {
		clear(x.sigs)
		clear(x.outcomes)
		clear(x.forbidden)
		x.sawForbidden = false
		x.stack = x.stack[:0]
	}
	x.shape, x.pl, x.tso, x.bound = s, pl, tso, bound
	x.buildProgram()
	x.writes = x.lay.build(s, x.ops, bound, x.writes)
	x.lowerProgram()
	if x.table == nil || x.table.words != x.lay.words {
		x.table = newVTable(x.lay.words)
	} else {
		x.table.reset()
	}
	x.cur = reuseBytes(x.cur, x.lay.stride)
	x.next = reuseBytes(x.next, x.lay.stride)
	if len(x.pbuf) != x.lay.words {
		x.pbuf = make([]uint64, x.lay.words)
	}
	x.rawRegs = reuseU64(x.rawRegs, x.lay.nregs)
	x.rawMem = reuseU64(x.rawMem, x.lay.nlines)
	return x
}

func reuseBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func reuseU64(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// buildProgram lowers the placement into x.ops, mirroring
// Shape.program but reusing the engine's backing arrays.
func (x *fastExplorer) buildProgram() {
	s, pl := x.shape, x.pl
	if cap(x.ops) < len(s.Threads) {
		x.ops = make([][]SOp, len(s.Threads))
	}
	x.ops = x.ops[:len(s.Threads)]
	for i := range s.Threads {
		base := s.Threads[i]
		t := x.ops[i][:0]
		if cap(t) < len(base)+len(s.Slots) {
			t = make([]SOp, 0, len(base)+len(s.Slots))
		}
		for at := 0; at <= len(base); at++ {
			for si, sl := range s.Slots {
				if sl.Thread == i && sl.At == at && pl.Has(si) {
					t = append(t, SOp{Code: SBarrier, Bar: sl.Bar, Obs: -1})
				}
			}
			if at < len(base) {
				t = append(t, base[at])
			}
		}
		x.ops[i] = t
	}
}

// lowerProgram translates x.ops into x.fops against the layout's
// dictionary.
func (x *fastExplorer) lowerProgram() {
	if cap(x.fops) < len(x.ops) {
		x.fops = make([][]fop, len(x.ops))
	}
	x.fops = x.fops[:len(x.ops)]
	for u, tops := range x.ops {
		f := x.fops[u][:0]
		if cap(f) < len(tops) {
			f = make([]fop, 0, len(tops))
		}
		for _, op := range tops {
			fo := fop{code: op.Code, addr: uint8(op.Addr), obs: int8(op.Obs), bar: op.Bar}
			if op.Code == SStore || op.Code == SSwap {
				fo.vidx = uint8(x.lay.dictIdx(op.Val))
			}
			f = append(f, fo)
		}
		x.fops[u] = f
	}
}

// pushInit seeds the worklist with the program's initial state.
func (x *fastExplorer) pushInit() {
	for i := range x.cur {
		x.cur[i] = 0
	}
	x.cur[0] = byte(x.bound)
	for i := 0; i < x.lay.nlines; i++ {
		v := uint64(0)
		if i < len(x.shape.Init) {
			v = x.shape.Init[i]
		}
		x.cur[x.lay.memOff+i] = byte(x.lay.dictIdx(v))
	}
	x.lay.pack(x.cur, x.pbuf)
	x.table.insert(x.pbuf, hashWords(x.pbuf))
	x.stack = append(x.stack, x.cur...)
}

// run drains the worklist. Every state is expanded exactly once; a
// state with no successor is terminal (all threads done, buffers
// drained) and is folded into the outcome set.
func (x *fastExplorer) run() {
	for len(x.stack) > 0 {
		x.expandOne()
	}
}

// expandOne pops one flat frame and generates its successors.
func (x *fastExplorer) expandOne() {
	n := len(x.stack) - x.lay.stride
	copy(x.cur, x.stack[n:])
	x.stack = x.stack[:n]
	if x.rec != nil {
		x.curID = x.ids[len(x.ids)-1]
		x.ids = x.ids[:len(x.ids)-1]
	}

	progressed := false
	for u := range x.fops {
		if int(x.cur[x.lay.th[u].hdrOff]) < len(x.fops[u]) {
			if x.issue(u) {
				progressed = true
			}
		}
	}
	for u := range x.fops {
		if x.commits(u) {
			progressed = true
		}
	}
	if !progressed {
		x.terminal()
	}
}

// emit packs the successor scratch state, probes the visited table,
// and pushes newly discovered states onto the worklist. st describes
// the transition; only a recording pass keeps it.
func (x *fastExplorer) emit(st wstep) {
	x.lay.pack(x.next, x.pbuf)
	if x.table.insert(x.pbuf, hashWords(x.pbuf)) {
		x.stack = append(x.stack, x.next...)
		if x.rec != nil {
			x.record(st)
		}
	}
}

// issue generates the successors of thread u's next op. It returns
// false when the op cannot issue yet (a drain barrier or RMW waiting
// on a non-empty buffer).
func (x *fastExplorer) issue(u int) bool {
	tl := &x.lay.th[u]
	op := x.fops[u][x.cur[tl.hdrOff]]
	switch op.code {
	case SLoad, SLoadAcq:
		x.loads(u, tl, op)
		return true

	case SStore:
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++ // pc
		nbuf := x.next[tl.hdrOff+2]
		b := x.next[tl.bufOff+3*int(nbuf):]
		b[0], b[1], b[2] = op.addr, op.vidx, x.next[tl.hdrOff+1] // level; rel clear
		x.next[tl.hdrOff+2] = nbuf + 1
		x.emit(wstep{kind: wStore, u: uint8(u), addr: op.addr, val: op.vidx})
		return true

	case SBarrier:
		return x.barrier(u, tl, op)

	case SSwap:
		if x.cur[tl.hdrOff+2] != 0 {
			return false // drains the buffer first
		}
		old := x.cur[x.lay.memOff+int(op.addr)]
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++
		x.next[x.lay.memOff+int(op.addr)] = op.vidx
		if op.obs >= 0 {
			x.next[x.lay.regsOff+int(op.obs)] = old
		}
		x.next[tl.hdrOff+3] = 0 // acquire half: syncPoint = now
		if old != op.vidx && !x.tso {
			for w := range x.fops {
				if w != u {
					x.addStale(w, op.addr, old)
				}
			}
		}
		x.emit(wstep{kind: wSwap, u: uint8(u), addr: op.addr, val: op.vidx, aux: old})
		return true
	}
	panic("explore: unknown op code")
}

// loads generates the read successors of a load: mandatory forwarding
// from the own buffer, otherwise the fresh committed value plus — for
// observed loads under WMM — every distinct stale view.
func (x *fastExplorer) loads(u int, tl *thLayout, op fop) {
	nbuf := int(x.cur[tl.hdrOff+2])
	// Store-buffer forwarding is mandatory when the buffer holds the
	// line: read the newest pending value.
	for k := nbuf - 1; k >= 0; k-- {
		if x.cur[tl.bufOff+3*k] == op.addr {
			x.finishLoad(u, tl, op, x.cur[tl.bufOff+3*k+1], wLoadFwd)
			return
		}
	}
	fresh := x.cur[x.lay.memOff+int(op.addr)]
	x.finishLoad(u, tl, op, fresh, wLoad)
	if op.obs < 0 || x.cur[0] == 0 {
		// Unobserved loads need no stale branch: the value is
		// discarded, and the state effects are identical.
		return
	}
	nstale := int(x.cur[tl.hdrOff+3])
	for k := 0; k < nstale; k++ {
		a, vf := x.cur[tl.staleOff+2*k], x.cur[tl.staleOff+2*k+1]&0x7f
		if a != op.addr || vf == fresh {
			continue
		}
		x.finishLoad(u, tl, op, vf, wLoadStale)
	}
}

// finishLoad emits the successor in which thread u's load read val
// (a dictionary index); kind says where the value came from.
func (x *fastExplorer) finishLoad(u int, tl *thLayout, op fop, val uint8, kind wkind) {
	copy(x.next, x.cur)
	if kind == wLoadStale {
		x.next[0]-- // budget
	}
	x.next[tl.hdrOff]++
	x.markClearable(tl)
	if op.code == SLoadAcq {
		x.next[tl.hdrOff+3] = 0
	}
	if op.obs >= 0 {
		x.next[x.lay.regsOff+int(op.obs)] = val
	}
	x.emit(wstep{kind: kind, u: uint8(u), addr: op.addr, val: val})
}

// barrier applies a standalone barrier's ordering effect. Store
// fences bump the drain level; full and DSB barriers wait for the
// buffer to drain and then discard every stale view; load-side
// barriers discard the views that predate the last load.
func (x *fastExplorer) barrier(u int, tl *thLayout, op fop) bool {
	st := wstep{kind: wBarrier, u: uint8(u), aux: uint8(op.bar)}
	switch op.bar {
	case isa.DMBSt:
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++
		x.next[tl.hdrOff+1]++ // drain level
		x.emit(st)
	case isa.DMBFull, isa.DSBFull, isa.DSBSt, isa.DSBLd:
		if x.cur[tl.hdrOff+2] != 0 {
			return false // blocks until the buffer drains
		}
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++
		x.next[tl.hdrOff+3] = 0
		x.emit(st)
	case isa.DMBLd, isa.AddrDep, isa.CtrlISB:
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++
		x.dropClearable(tl)
		x.emit(st)
	case isa.DataDep, isa.CtrlDep, isa.ISB:
		copy(x.next, x.cur)
		x.next[tl.hdrOff]++
		x.emit(st)
	default:
		badSlotBarrier(op.bar)
	}
	return true
}

//go:noinline
func badSlotBarrier(b isa.Barrier) {
	panic("explore: unsupported slot barrier " + b.String())
}

// commits generates one successor per eligible store-buffer entry of
// thread u (see eligible).
func (x *fastExplorer) commits(u int) bool {
	tl := &x.lay.th[u]
	nbuf := int(x.cur[tl.hdrOff+2])
	any := false
	for k := 0; k < nbuf; k++ {
		if !x.eligible(tl, k) {
			continue
		}
		if k > 0 && x.cur[0] == 0 {
			continue
		}
		any = true
		eaddr := x.cur[tl.bufOff+3*k]
		eval := x.cur[tl.bufOff+3*k+1]
		copy(x.next, x.cur)
		old := x.next[x.lay.memOff+int(eaddr)]
		x.next[x.lay.memOff+int(eaddr)] = eval
		copy(x.next[tl.bufOff+3*k:tl.bufOff+3*(nbuf-1)], x.next[tl.bufOff+3*(k+1):tl.bufOff+3*nbuf])
		x.next[tl.hdrOff+2] = byte(nbuf - 1)
		if k > 0 {
			x.next[0]--
		}
		x.dropStaleAddr(tl, eaddr)
		if old != eval && !x.tso {
			for w := range x.fops {
				if w != u {
					x.addStale(w, eaddr, old)
				}
			}
		}
		kind := wCommit
		if k > 0 {
			kind = wCommitOOO
		}
		x.emit(wstep{kind: kind, u: uint8(u), addr: eaddr, val: eval})
	}
	return any
}

// eligible reports whether buffer entry k of the current frame may
// commit. Under TSO only the head may drain; under WMM an entry may
// drain early unless an older entry has a lower fence level, writes
// the same line, or the entry is a release that is not yet oldest.
func (x *fastExplorer) eligible(tl *thLayout, k int) bool {
	if x.tso {
		return k == 0
	}
	lv := x.cur[tl.bufOff+3*k+2]
	if lv&0x80 != 0 && k != 0 {
		return false // release not yet oldest
	}
	lv &= 0x7f
	ea := x.cur[tl.bufOff+3*k]
	for j := 0; j < k; j++ {
		if x.cur[tl.bufOff+3*j+2]&0x7f < lv || x.cur[tl.bufOff+3*j] == ea {
			return false
		}
	}
	return true
}

// terminal folds the current state into the outcome set. Outcomes
// depend only on registers and final memory, so terminal states are
// first deduplicated by a packed (regs, mem) signature and rendered —
// the only allocating step — once per distinct signature.
func (x *fastExplorer) terminal() {
	if x.lay.sigOK {
		var sig uint64
		var off uint
		for i := 0; i < x.lay.nregs; i++ {
			sig |= uint64(x.cur[x.lay.regsOff+i]) << off
			off += x.lay.vbits
		}
		for i := 0; i < x.lay.nlines; i++ {
			sig |= uint64(x.cur[x.lay.memOff+i]) << off
			off += x.lay.vbits
		}
		if _, ok := x.sigs[sig]; ok {
			return
		}
		x.sigs[sig] = struct{}{}
	}
	for i := 0; i < x.lay.nregs; i++ {
		x.rawRegs[i] = x.lay.dict[x.cur[x.lay.regsOff+i]]
	}
	for i := 0; i < x.lay.nlines; i++ {
		x.rawMem[i] = x.lay.dict[x.cur[x.lay.memOff+i]]
	}
	o := x.shape.Outcome(x.rawRegs, x.rawMem)
	x.outcomes[o] = true
	if x.shape.Forbidden(x.rawRegs, x.rawMem) {
		x.forbidden[o] = true
		x.sawForbidden = true
		if x.rec != nil {
			// A recording pass stops at the first forbidden terminal.
			x.hitID, x.hit = x.curID, o
			x.stack, x.ids = x.stack[:0], x.ids[:0]
		}
	}
}

// markClearable flags every stale entry of the successor's thread: a
// load just completed, so the entries now predate the thread's last
// load and a subsequent load-side barrier may discard them.
func (x *fastExplorer) markClearable(tl *thLayout) {
	n := int(x.next[tl.hdrOff+3])
	for k := 0; k < n; k++ {
		x.next[tl.staleOff+2*k+1] |= 0x80
	}
}

// dropClearable compacts away the successor thread's clearable stale
// entries (a load-side barrier discards views predating the last
// load).
func (x *fastExplorer) dropClearable(tl *thLayout) {
	n := int(x.next[tl.hdrOff+3])
	w := 0
	for k := 0; k < n; k++ {
		off := tl.staleOff + 2*k
		if x.next[off+1]&0x80 == 0 {
			x.next[tl.staleOff+2*w] = x.next[off]
			x.next[tl.staleOff+2*w+1] = x.next[off+1]
			w++
		}
	}
	x.next[tl.hdrOff+3] = byte(w)
}

// dropStaleAddr compacts away the successor thread's stale entries
// for one address (the thread committed to it and now owns the fresh
// copy).
func (x *fastExplorer) dropStaleAddr(tl *thLayout, addr uint8) {
	n := int(x.next[tl.hdrOff+3])
	w := 0
	for k := 0; k < n; k++ {
		off := tl.staleOff + 2*k
		if x.next[off] != addr {
			x.next[tl.staleOff+2*w] = x.next[off]
			x.next[tl.staleOff+2*w+1] = x.next[off+1]
			w++
		}
	}
	x.next[tl.hdrOff+3] = byte(w)
}

// addStale records in the successor that addr held old (a dictionary
// index) before a remote commit. An existing (addr, old) entry is
// strengthened back to non-clearable: the fresh invalidation
// postdates the holder's last load again.
func (x *fastExplorer) addStale(w int, addr, old uint8) {
	tl := &x.lay.th[w]
	n := int(x.next[tl.hdrOff+3])
	for k := 0; k < n; k++ {
		off := tl.staleOff + 2*k
		if x.next[off] == addr && x.next[off+1]&0x7f == old {
			x.next[off+1] &^= 0x80
			return
		}
	}
	x.next[tl.staleOff+2*n] = addr
	x.next[tl.staleOff+2*n+1] = old
	x.next[tl.hdrOff+3] = byte(n + 1)
}

// globalMetrics is the explorer's observability seam, mirroring
// sim.SetGlobalMetrics: dark by default, one atomic load per
// exploration when unset.
var globalMetrics atomic.Pointer[metrics.Registry]

// SetMetrics installs (or, with nil, removes) the registry every
// subsequent exploration folds its visited-table statistics into.
func SetMetrics(reg *metrics.Registry) {
	globalMetrics.Store(reg)
}

// metricsInto folds one exploration's table statistics into reg.
func (x *fastExplorer) metricsInto(reg *metrics.Registry) {
	reg.Counter("explore_runs_total").Inc()
	reg.Counter("explore_states_total").Add(uint64(x.table.n))
	reg.Counter("explore_probes_total").Add(x.table.probes)
	reg.Counter("explore_table_lookups_total").Add(x.table.calls)
	reg.Counter("explore_table_grows_total").Add(uint64(x.table.grows))
	reg.Gauge("explore_table_occupancy").Set(x.table.occupancy())
	reg.Gauge("explore_probe_length_mean").Set(x.table.meanProbe())
	reg.Gauge("explore_table_slots").Set(float64(x.table.mask + 1))
}

func (x *fastExplorer) noteMetrics() {
	if reg := globalMetrics.Load(); reg != nil {
		x.metricsInto(reg)
	}
}
