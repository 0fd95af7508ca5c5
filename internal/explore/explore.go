package explore

import (
	"sort"

	"armbar/internal/litmus"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

// DefaultBound is the reorder budget the gates run at. Each
// out-of-order store commit and each stale load view consumes one
// unit; the classic suite's reachable sets are saturated well below
// this (TestBoundSaturation pins that raising it changes nothing).
const DefaultBound = 4

// Result is the exact reachable-outcome set of one shape under one
// placement.
type Result struct {
	Shape     string
	Mode      sim.Mode
	Placement Placement
	Bound     int
	Outcomes  []litmus.Outcome // sorted, deduplicated
	Forbidden []litmus.Outcome // sorted subset matching shape.Forbidden
	States    int              // distinct abstract states visited
	Witness   []string         // first forbidden trace, nil when safe
}

// Safe reports whether no forbidden outcome is reachable.
func (r *Result) Safe() bool { return len(r.Forbidden) == 0 }

// Reaches reports whether the outcome is in the reachable set.
func (r *Result) Reaches(o litmus.Outcome) bool {
	for _, x := range r.Outcomes {
		if x == o {
			return true
		}
	}
	return false
}

// Explore enumerates every interleaving of the shape under the
// placement, up to the reorder bound.
func Explore(s *Shape, pl Placement, mode sim.Mode, bound int) *Result {
	return exploreRun(s, pl, mode, bound, nil, true)
}

// ExplorePar is Explore with the search fanned out over the pool:
// the packed engine expands a frontier sequentially, shards the
// unexpanded subtrees over the workers, and merges the per-worker
// visited tables and outcome sets at quiescence. The reachable set is
// the split-independent union of the subtree reachable sets, so the
// Result — outcomes, forbidden set, state count, witness — is
// bit-identical to the sequential explorer at every pool width. A nil
// pool (or a single worker) runs sequentially.
func ExplorePar(s *Shape, pl Placement, mode sim.Mode, bound int, pool *runner.Pool) *Result {
	return exploreRun(s, pl, mode, bound, pool, true)
}

// exploreRun is the shared engine driver. The witness pass is skipped
// when the caller only needs the verdict (the Minimize lattice walk,
// Agreement).
func exploreRun(s *Shape, pl Placement, mode sim.Mode, bound int, pool *runner.Pool, wantWitness bool) *Result {
	r, _ := exploreReuse(s, pl, mode, bound, pool, wantWitness, nil)
	return r
}

// exploreReuse is exploreRun with engine recycling: re (possibly nil)
// is a retired engine whose slabs are salvaged, and the engine used
// here is returned for the caller's next placement.
func exploreReuse(s *Shape, pl Placement, mode sim.Mode, bound int, pool *runner.Pool, wantWitness bool, re *fastExplorer) (*Result, *fastExplorer) {
	tso := mode == sim.TSO
	x := newFastExplorer(s, pl, tso, bound, re)
	x.pushInit()
	if pool == nil || pool.Workers() <= 1 {
		x.run()
	} else {
		x.runSharded(pool)
	}
	x.noteMetrics()

	res := &Result{
		Shape:     s.Name,
		Mode:      mode,
		Placement: pl,
		Bound:     bound,
		States:    x.table.n,
	}
	for o := range x.outcomes {
		res.Outcomes = append(res.Outcomes, o)
	}
	for o := range x.forbidden {
		res.Forbidden = append(res.Forbidden, o)
	}
	sortOutcomes(res.Outcomes)
	sortOutcomes(res.Forbidden)
	if x.sawForbidden && wantWitness {
		res.Witness = x.witness()
	}
	return res, x
}

func sortOutcomes(os []litmus.Outcome) {
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
}
