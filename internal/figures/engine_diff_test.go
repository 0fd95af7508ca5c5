package figures_test

import (
	"strings"
	"testing"

	"armbar/internal/figures"
	"armbar/internal/sim"
)

// TestEngineOutputIdentical is the workload-level differential proof
// for the two program executors: rendering the fast golden subset with
// the interpreted engine (every program walked by sim.Walk through the
// per-op Thread methods) must produce the same bytes as the compiled
// default, at two seeds. Both engines run the one program each
// workload builds, so this checks the executors against each other
// across every experiment's op mix — ring addressing, loop trip
// counts, spins, rng draw order and all — while the fidelity of the
// lowering itself is pinned by the golden digests.
func TestEngineOutputIdentical(t *testing.T) {
	defer sim.SetDefaultEngine(sim.EngineDefault)
	for _, seed := range []int64{42, 7} {
		sim.SetDefaultEngine(sim.EngineCompiled)
		compiled := render(figures.Options{Quick: true, Seed: seed}, fastSubset)
		sim.SetDefaultEngine(sim.EngineInterp)
		interp := render(figures.Options{Quick: true, Seed: seed}, fastSubset)
		if compiled == interp {
			continue
		}
		cl, il := strings.Split(compiled, "\n"), strings.Split(interp, "\n")
		for i := range cl {
			if i >= len(il) || cl[i] != il[i] {
				t.Fatalf("seed %d: engines diverge at line %d:\n  compiled: %s\n  interp:   %s",
					seed, i+1, cl[i], at(il, i))
			}
		}
		t.Fatalf("seed %d: interp output has %d extra lines", seed, len(il)-len(cl))
	}
}
