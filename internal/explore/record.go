package explore

import (
	"fmt"
	"slices"

	"armbar/internal/isa"
)

// This file is witness recording: when a caller wants a trace for an
// unsafe verdict, the packed engine reruns the search sequentially
// with rec set. Every newly inserted state then records its parent's
// state id and the step that reached it, and the pass stops at the
// first forbidden terminal; walking the parent chain back from that
// terminal yields the trace. The ordinary visit loop only tests rec
// for nil and never allocates for it.

// wkind classifies a transition for witness rendering.
type wkind uint8

const (
	wStore     wkind = iota // store issued into the buffer
	wSwap                   // atomic swap
	wLoad                   // load of the committed value
	wLoadFwd                // load forwarded from the own buffer
	wLoadStale              // load of a stale view
	wBarrier                // standalone barrier
	wCommit                 // buffer head committed
	wCommitOOO              // younger buffer entry committed early
)

// wstep describes one transition: thread u's step of the given kind
// on line addr. val is the stored, loaded or committed value (a
// dictionary index); aux is a swap's old value index or a barrier's
// isa.Barrier.
type wstep struct {
	kind wkind
	u    uint8
	addr uint8
	val  uint8
	aux  uint8
}

// wrec is one recorded state: its parent's state id (-1 for the
// initial state) and the step from the parent.
type wrec struct {
	parent int32
	step   wstep
}

// record assigns the state just pushed the next state id and notes how
// it was reached. Called only when recording; kept out of line so the
// visit loop stays small.
//
//go:noinline
func (x *fastExplorer) record(st wstep) {
	x.ids = append(x.ids, int32(len(x.rec)))
	x.rec = append(x.rec, wrec{parent: x.curID, step: st})
}

// witness reruns the search for the engine's current program
// sequentially in recording mode and renders the trace to the first
// forbidden terminal in visit order, ending in "outcome <o>"; nil when
// no forbidden outcome is reachable. It reuses (and resets) the
// engine, and does not feed the metrics registry.
func (x *fastExplorer) witness() []string {
	newFastExplorer(x.shape, x.pl, x.tso, x.bound, x) // resets x in place
	x.ids = x.ids[:0]
	x.hitID = -1
	x.pushInit()
	x.curID = -1
	x.record(wstep{}) // the initial state: id 0, no parent
	x.run()
	rec, hitID := x.rec, x.hitID
	x.rec = nil // recording off for the engine's next use
	if hitID < 0 {
		return nil
	}
	var out []string
	for id := hitID; rec[id].parent >= 0; id = rec[id].parent {
		out = append(out, x.describe(rec[id].step))
	}
	slices.Reverse(out)
	return append(out, "outcome "+string(x.hit))
}

// describe renders one step.
func (x *fastExplorer) describe(st wstep) string {
	line := fmt.Sprintf("line%d", st.addr)
	if int(st.addr) < len(x.shape.LineNames) {
		line = x.shape.LineNames[st.addr]
	}
	val := x.lay.dict[st.val]
	switch st.kind {
	case wStore:
		return fmt.Sprintf("T%d: store %s=%d (buffered)", st.u, line, val)
	case wSwap:
		return fmt.Sprintf("T%d: swap %s=%d (read %d)", st.u, line, val, x.lay.dict[st.aux])
	case wLoad:
		return fmt.Sprintf("T%d: load %s = %d", st.u, line, val)
	case wLoadFwd:
		return fmt.Sprintf("T%d: load %s = %d (forwarded)", st.u, line, val)
	case wLoadStale:
		return fmt.Sprintf("T%d: load %s = %d (stale)", st.u, line, val)
	case wBarrier:
		return fmt.Sprintf("T%d: %v", st.u, isa.Barrier(st.aux))
	case wCommit:
		return fmt.Sprintf("T%d: commit %s=%d", st.u, line, val)
	default: // wCommitOOO
		return fmt.Sprintf("T%d: commit %s=%d (out of order)", st.u, line, val)
	}
}
