package explore

import (
	"testing"

	"armbar/internal/platform"
	"armbar/internal/sim"
)

// TestIRIWUnorderedReaches pins that the IRIW variants checked in
// internal/litmus have teeth: with the readers unordered the explorer
// reaches the contradictory view.
func TestIRIWUnorderedReaches(t *testing.T) {
	if Explore(IRIW(), 0, sim.WMM, DefaultBound).Safe() {
		t.Fatal("IRIW{} under WMM: explorer reaches no contradictory view")
	}
}

// TestCompileRejectsNonLoadSpin pins that only a plain load can spin:
// prog has no acquire spin, and silently lowering one to a single LDAR
// would sample a different program than the shape describes.
func TestCompileRejectsNonLoadSpin(t *testing.T) {
	s := MP()
	s.Threads[1][1].Code = SLoadAcq
	if _, err := Compile(s, 0, 1, 1, []uint64{64, 128}); err == nil {
		t.Fatal("Compile lowered Spin on SLoadAcq")
	}
	if _, err := Sample(platform.Kunpeng916(), s, 0, sim.WMM, 1, 1); err == nil {
		t.Fatal("Sample ran a shape that cannot be lowered")
	}
}
