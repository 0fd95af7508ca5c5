// Package litmus checks the classic litmus tests with their slots
// refilled by other barrier kinds than the canonical ones in
// explore.All(). Each fully placed variant must be safe in the
// explorer under both models, absmodel's closed form must agree
// wherever it knows the shape, and 300 WMM samples must stay inside the
// explorer's reachable set, so no forbidden outcome is sampled. The
// shapes themselves live in internal/explore; this package holds tests
// only.
package litmus_test

import (
	"fmt"
	"strings"
	"testing"

	"armbar/internal/absmodel"
	"armbar/internal/explore"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

const sampleRuns = 300

// withBars returns the shape with its slots refilled, in order, by
// bars.
func withBars(s *explore.Shape, bars ...isa.Barrier) *explore.Shape {
	if len(bars) != len(s.Slots) {
		panic(fmt.Sprintf("%s has %d slots, got %d barriers", s.Name, len(s.Slots), len(bars)))
	}
	slots := append([]explore.Slot(nil), s.Slots...)
	for i := range slots {
		slots[i].Bar = bars[i]
	}
	s.Slots = slots
	return s
}

// checkSafe runs the three checks on each fully placed row; row i
// samples from seed baseSeed+i*1000.
func checkSafe(t *testing.T, baseSeed int64, rows ...*explore.Shape) {
	t.Helper()
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	for i, s := range rows {
		pl := explore.Naive(s)
		name := s.Name + "(" + strings.ReplaceAll(s.SlotSummary(), " ", ",") + ")"
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			if r := explore.Explore(s, pl, mode, explore.DefaultBound); !r.Safe() {
				t.Errorf("%s under %v: explorer reaches %v", name, mode, r.Forbidden)
			}
			if absmodel.KnownShape(s.Name) && !absmodel.FenceSafe(s.Name, explore.SlotBarriers(s, pl), mode) {
				t.Errorf("%s under %v: closed form says unsafe", name, mode)
			}
		}
		if err := explore.Agreement(p, s, pl, sim.WMM, sampleRuns, baseSeed+int64(i)*1000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMPFixedByBarrierPairs(t *testing.T) {
	checkSafe(t, 2000,
		withBars(explore.MP(), isa.DMBSt, isa.DMBLd),
		withBars(explore.MP(), isa.DMBFull, isa.DMBFull),
		withBars(explore.MP(), isa.DMBSt, isa.AddrDep),
		withBars(explore.MP(), isa.DSBFull, isa.DSBFull),
		withBars(explore.MP(), isa.DMBSt, isa.CtrlISB),
	)
}

func TestStoreBufferingFencedForbidden(t *testing.T) {
	checkSafe(t, 7000, withBars(explore.SB(), isa.DSBFull, isa.DSBFull))
}

func TestSShapeForbiddenWhenOrdered(t *testing.T) {
	checkSafe(t, 8000, withBars(explore.S(), isa.DMBSt, isa.DataDep))
}

func TestRShapeForbiddenWhenFenced(t *testing.T) {
	checkSafe(t, 9000, withBars(explore.R(), isa.DMBFull, isa.DMBFull))
}

// TestWRCCausalityWithOrdering: with both readers ordered, the
// causality-breaking outcome is forbidden on this multi-copy-atomic
// model.
func TestWRCCausalityWithOrdering(t *testing.T) {
	checkSafe(t, 10000,
		withBars(explore.WRC(), isa.AddrDep, isa.AddrDep),
		withBars(explore.WRC(), isa.DMBFull, isa.DMBFull),
		withBars(explore.WRC(), isa.DMBLd, isa.DMBLd),
	)
}

// TestIRIWMultiCopyAtomicity: ARMv8 is multi-copy atomic, so ordered
// readers never see the independent writes in opposite orders.
// explore's TestIRIWUnorderedReaches shows the check has teeth.
func TestIRIWMultiCopyAtomicity(t *testing.T) {
	checkSafe(t, 13000,
		withBars(explore.IRIW(), isa.AddrDep, isa.AddrDep),
		withBars(explore.IRIW(), isa.DMBLd, isa.DMBLd),
		withBars(explore.IRIW(), isa.DMBFull, isa.DMBFull),
	)
}
