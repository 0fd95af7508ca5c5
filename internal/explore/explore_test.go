package explore

import (
	"reflect"
	"strings"
	"testing"

	"armbar/internal/runner"
	"armbar/internal/sim"
)

// expectedMinimal pins the minimal safe placements of every shape
// under both modes — the hand-derived ground truth the explorer must
// reproduce (and absmodel's closed-form requirements agree with, see
// agreement_test.go).
var expectedMinimal = map[sim.Mode]map[string][]Placement{
	sim.WMM: {
		"MP":     {0b11},
		"SB":     {0b11},
		"S":      {0b01},
		"R":      {0b11},
		"2+2W":   {0b11},
		"LB":     {0b00},
		"WRC":    {0b10},
		"CoRR":   {0b1},
		"CoWW":   {0},
		"SB+RMW": {0},
		"chan":   {0b110},
		"pilot":  {0},
	},
	sim.TSO: {
		"MP":     {0b00},
		"SB":     {0b11},
		"S":      {0b00},
		"R":      {0b10},
		"2+2W":   {0b00},
		"LB":     {0b00},
		"WRC":    {0b00},
		"CoRR":   {0b0},
		"CoWW":   {0},
		"SB+RMW": {0},
		"chan":   {0b000},
		"pilot":  {0},
	},
}

func TestMinimalPlacements(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			rep := Minimize(s, mode, DefaultBound)
			want := expectedMinimal[mode][s.Name]
			if !reflect.DeepEqual(rep.Minimal, want) {
				t.Errorf("%s under %v: minimal %v, want %v", s.Name, mode, rep.Minimal, want)
			}
			if !rep.NaiveSafe {
				t.Errorf("%s under %v: naive placement unsafe", s.Name, mode)
			}
		}
	}
}

// TestBoundSaturation pins that the gate bound saturates the
// reachable sets: raising it changes no outcome set at the empty or
// naive placement of any shape.
func TestBoundSaturation(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			for _, pl := range []Placement{0, Naive(s)} {
				base := Explore(s, pl, mode, DefaultBound)
				wide := Explore(s, pl, mode, DefaultBound+2)
				if !reflect.DeepEqual(base.Outcomes, wide.Outcomes) {
					t.Errorf("%s%s under %v: outcomes grow past bound %d: %v vs %v",
						s.Name, pl.Describe(s), mode, DefaultBound, base.Outcomes, wide.Outcomes)
				}
			}
		}
	}
}

func TestPilotCheck(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		rep := PilotCheck(mode, DefaultBound)
		if !rep.OK() {
			for _, st := range rep.Steps {
				t.Logf("%-16s safe=%v expect=%v", st.Name, st.Safe, st.ExpectSafe)
			}
			t.Fatalf("pilot check failed under %v", mode)
		}
	}
	// The WMM derivation specifically: dropping the availability DMB
	// is the only safe single removal.
	rep := PilotCheck(sim.WMM, DefaultBound)
	for _, st := range rep.Steps {
		switch st.Name {
		case "chan - avail", "chan naive", "pilot word":
			if !st.Safe {
				t.Errorf("%s: want safe", st.Name)
			}
		case "chan - publish", "chan - consume":
			if st.Safe {
				t.Errorf("%s: want unsafe", st.Name)
			}
			if len(st.Witness) == 0 {
				t.Errorf("%s: unsafe step carries no witness", st.Name)
			}
		}
	}
}

// TestWitness pins that an unsafe verdict carries a replayable trace
// ending in the forbidden outcome.
func TestWitness(t *testing.T) {
	r := Explore(MP(), 0, sim.WMM, DefaultBound)
	if r.Safe() {
		t.Fatal("MP with no barriers must be unsafe under WMM")
	}
	if len(r.Witness) == 0 {
		t.Fatal("no witness")
	}
	last := r.Witness[len(r.Witness)-1]
	if want := "outcome "; len(last) < len(want) || last[:len(want)] != want {
		t.Fatalf("witness does not end in an outcome line: %q", last)
	}
}

// TestWitnessMP pins the exact trace the recording pass renders for
// unfenced MP under WMM: the consumer warms its data copy, the
// producer's stores commit in order, and the consumer sees the flag
// but reads its invalidated data copy.
func TestWitnessMP(t *testing.T) {
	want := []string{
		"T1: load data = 0",
		"T0: store data=23 (buffered)",
		"T0: commit data=23",
		"T0: store flag=1 (buffered)",
		"T0: commit flag=1",
		"T1: load flag = 1",
		"T1: load data = 0 (stale)",
		"outcome flag=1 local=0",
	}
	r := Explore(MP(), 0, sim.WMM, DefaultBound)
	if !reflect.DeepEqual(r.Witness, want) {
		t.Fatalf("MP witness:\n  got  %q\n  want %q", r.Witness, want)
	}
}

// TestWitnessIffUnsafe checks every classic shape's empty and naive
// placements under both modes: a witness exists exactly when the
// verdict is unsafe, and its last line names a forbidden outcome.
func TestWitnessIffUnsafe(t *testing.T) {
	for _, s := range All() {
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			for _, pl := range []Placement{0, Naive(s)} {
				r := Explore(s, pl, mode, DefaultBound)
				if (len(r.Witness) > 0) == r.Safe() {
					t.Errorf("%s%s %v: safe=%v but witness has %d lines",
						s.Name, pl.Describe(s), mode, r.Safe(), len(r.Witness))
					continue
				}
				if r.Safe() {
					continue
				}
				last := r.Witness[len(r.Witness)-1]
				o, ok := strings.CutPrefix(last, "outcome ")
				found := false
				for _, f := range r.Forbidden {
					found = found || f == Outcome(o)
				}
				if !ok || !found {
					t.Errorf("%s%s %v: last witness line %q names no outcome in %v",
						s.Name, pl.Describe(s), mode, last, r.Forbidden)
				}
			}
		}
	}
}

// TestWitnessPoolWidthIndependent pins ExplorePar's promise for the
// witness itself: the recording pass is sequential, so the trace is
// the same at every pool width.
func TestWitnessPoolWidthIndependent(t *testing.T) {
	pools := map[int]*runner.Pool{}
	for _, w := range []int{1, 2, 4} {
		pools[w] = runner.New(w)
		defer pools[w].Close()
	}
	for _, s := range Classic() {
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			base := ExplorePar(s, 0, mode, DefaultBound, pools[1]).Witness
			for _, w := range []int{2, 4} {
				got := ExplorePar(s, 0, mode, DefaultBound, pools[w]).Witness
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s %v: witness at width %d differs from width 1:\n  %q\n  %q",
						s.Name, mode, w, got, base)
				}
			}
		}
	}
}
