package explore

import (
	"reflect"
	"testing"

	"armbar/internal/platform"
	"armbar/internal/sim"
)

// The explorer itself consumes no randomness: verdicts, minimal sets,
// and state counts must be bit-identical across repeated runs. The
// sampling gate must be reproducible at a fixed seed and must reach
// the same verdicts regardless of which seed drives it.

func TestMinimizeDeterminism(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			a := Minimize(s, mode, DefaultBound)
			b := Minimize(s, mode, DefaultBound)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s under %v: Minimize not deterministic: %+v vs %+v", s.Name, mode, a, b)
			}
		}
	}
}

func TestSampleReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling skipped in -short")
	}
	p := platform.Kunpeng916()
	for _, s := range []*Shape{MP(), Chan()} {
		a, err := Sample(p, s, 0, sim.WMM, 100, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sample(p, s, 0, sim.WMM, 100, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Count, b.Count) {
			t.Errorf("%s: histogram not reproducible at seed 42: %v vs %v", s.Name, a.Count, b.Count)
		}
	}
}

// TestSeedIndependentVerdicts runs the differential gate at two
// unrelated seeds: whatever the seed, sampling must stay inside the
// explorer's reachable sets.
func TestSeedIndependentVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling skipped in -short")
	}
	p := platform.Kunpeng916()
	for _, seed := range []int64{42, 7} {
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			for _, s := range All() {
				for _, pl := range []Placement{0, Naive(s)} {
					if err := Agreement(p, s, pl, mode, 100, seed); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			}
		}
	}
}
