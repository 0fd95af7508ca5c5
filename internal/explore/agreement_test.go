package explore

import (
	"reflect"
	"testing"

	"armbar/internal/absmodel"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// TestFormulaAgreement checks every placement of every shape under
// both modes against absmodel's closed-form fence requirements: the
// operational explorer and the axiomatic formula must give the same
// verdict everywhere on the lattice.
func TestFormulaAgreement(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			if !absmodel.KnownShape(s.Name) {
				t.Errorf("%s: no closed-form fence requirements", s.Name)
				continue
			}
			for pl := Placement(0); pl <= Naive(s); pl++ {
				got := Explore(s, pl, mode, DefaultBound).Safe()
				want := absmodel.FenceSafe(s.Name, SlotBarriers(s, pl), mode)
				if got != want {
					t.Errorf("%s%s under %v: explorer safe=%v, formula safe=%v",
						s.Name, pl.Describe(s), mode, got, want)
				}
			}
		}
	}
}

// TestSimAgreement is the simulator gate: at the empty, naive, and
// every minimal placement of every shape, sampled outcomes must be a
// subset of the explorer's reachable set (which also proves safe
// placements never sample a forbidden outcome).
func TestSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			pls := map[Placement]bool{0: true, Naive(s): true}
			for _, pl := range expectedMinimal[mode][s.Name] {
				pls[pl] = true
			}
			for pl := range pls {
				if err := Agreement(p, s, pl, mode, 200, 42); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestPinnedAnomalies pins that the gate has teeth: at these
// placements the simulator demonstrably samples a forbidden outcome
// under WMM, so the subset check is comparing against non-trivial
// reachable sets, not vacuously passing on clean histograms.
func TestPinnedAnomalies(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	cases := []struct {
		shape *Shape
		pl    Placement
	}{
		{MP(), 0},
		{SB(), 0},
		{R(), 0},
		{TwoPlusTwoW(), 0},
		{Chan(), 0},
		{Chan(), 0b001}, // avail only: publish and consume both missing
	}
	for _, c := range cases {
		r := Explore(c.shape, c.pl, sim.WMM, DefaultBound)
		if r.Safe() {
			t.Errorf("%s%s: expected unsafe under WMM", c.shape.Name, c.pl.Describe(c.shape))
			continue
		}
		res, err := Sample(p, c.shape, c.pl, sim.WMM, 400, 42)
		if err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, f := range r.Forbidden {
			if res.Count[f] > 0 {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("%s%s: 400 runs sampled no forbidden outcome (explorer reaches %v)",
				c.shape.Name, c.pl.Describe(c.shape), r.Forbidden)
		}
	}
}

// TestSampleEngineParity runs every shape at its empty and naive
// placements under both engines: the interpreted walk and the compiled
// executor must give identical histograms, so the two agree seed by
// seed on the observed registers and final memory of every run.
func TestSampleEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	defer sim.SetDefaultEngine(sim.EngineDefault)
	p := platform.Kunpeng916()
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			for _, pl := range []Placement{0, Naive(s)} {
				var got [2]*Histogram
				for i, e := range []sim.Engine{sim.EngineInterp, sim.EngineCompiled} {
					sim.SetDefaultEngine(e)
					h, err := Sample(p, s, pl, mode, 50, 42)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = h
				}
				if !reflect.DeepEqual(got[0].Count, got[1].Count) {
					t.Errorf("%s%s under %v: interp %v, compiled %v",
						s.Name, pl.Describe(s), mode, got[0].Count, got[1].Count)
				}
			}
		}
	}
}
