// Package perfgate turns BENCH_sim.json — the committed snapshot of
// the simulator hot-path microbenchmarks — into an enforced regression
// gate. It loads the snapshot, compares freshly measured results
// against it, and renders a readable delta table; `armbar perfcheck`
// (and `make perfcheck`) drive it and fail the build when ns/op or
// allocs/op regress beyond the threshold — or when ns/op improves so
// far past the snapshot that the baseline itself has gone stale and
// must be regenerated.
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Bench is one benchmark measurement, in BENCH_sim.json's schema.
type Bench struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the committed BENCH_sim.json document. The wall-time
// pair records the result-cache speedup measured when the snapshot was
// taken (scripts/bench_snapshot.sh times `-quick all` cold, then warm
// from the cache it just filled); they are context for reviewers, not
// gated — machine load moves whole-run wall time too much for a
// ratio gate to stay quiet.
type Snapshot struct {
	Date            string  `json:"date"`
	Go              string  `json:"go"`
	CPU             string  `json:"cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	ColdWallSeconds float64 `json:"cold_wall_seconds,omitempty"`
	WarmWallSeconds float64 `json:"warm_wall_seconds,omitempty"`
	// InterpColdWallSeconds is the same cold `-quick all` run under
	// -engine=interp, so the compiled engine's whole-pipeline speedup
	// is visible next to the per-op benchmarks.
	InterpColdWallSeconds float64 `json:"interp_cold_wall_seconds,omitempty"`
	// The cold `-quick all` run again at GOMAXPROCS=1 and at the
	// host's core count (NProc).
	NProc                    int     `json:"nproc,omitempty"`
	ColdWallSecondsMaxProcs1 float64 `json:"cold_wall_seconds_gomaxprocs1,omitempty"`
	ColdWallSecondsNProc     float64 `json:"cold_wall_seconds_nproc,omitempty"`
	Benchmarks               []Bench `json:"benchmarks"`
}

// Load reads and validates a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("perfgate: %s holds no benchmarks", path)
	}
	return &s, nil
}

// Median returns the repetition with the median ns/op among repeated
// measurements of one benchmark — the lower middle one for an even
// count — or a zero Bench when there are none. The gate compares this
// rather than a single sample: one descheduled or lucky repetition on
// a shared host then moves neither side of the two-sided gate.
func Median(runs []Bench) Bench {
	if len(runs) == 0 {
		return Bench{}
	}
	sorted := append([]Bench(nil), runs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].NsPerOp < sorted[j].NsPerOp })
	return sorted[(len(sorted)-1)/2]
}

// Delta is the comparison of one benchmark against the snapshot.
type Delta struct {
	Name       string
	BaseNs     float64
	CurNs      float64
	Ratio      float64 // CurNs / BaseNs
	BaseAllocs int64
	CurAllocs  int64
	BaseBytes  int64
	CurBytes   int64
	OK         bool
	Reason     string // why the gate failed, empty when OK
}

// Compare checks cur against the snapshot. A benchmark fails when its
// ns/op exceeds the snapshot by more than nsThreshold (a ratio, e.g.
// 1.8 = 80% slower), when allocs/op grew at all (allocation counts are
// deterministic, so any growth is a real regression), or when a
// snapshot benchmark was not measured.
//
// Large improvements fail the gate too: when ns/op drops below
// 1/improveThreshold of the snapshot (e.g. improveThreshold 1.5 = more
// than 1.5x faster), the snapshot no longer describes the code and a
// regression back to the old level would slip through unnoticed — the
// fix is to refresh BENCH_sim.json (make bench-snapshot), which makes
// the speedup part of the enforced baseline. improveThreshold <= 0
// disables that side of the gate. The bool result is true only when
// every snapshot entry passes.
func Compare(snap *Snapshot, cur []Bench, nsThreshold, improveThreshold float64) ([]Delta, bool) {
	byName := make(map[string]Bench, len(cur))
	for _, b := range cur {
		byName[b.Name] = b
	}
	deltas := make([]Delta, 0, len(snap.Benchmarks))
	allOK := true
	for _, base := range snap.Benchmarks {
		d := Delta{
			Name:       base.Name,
			BaseNs:     base.NsPerOp,
			BaseAllocs: base.AllocsPerOp,
			BaseBytes:  base.BytesPerOp,
		}
		c, ok := byName[base.Name]
		if !ok {
			d.Reason = "not measured"
		} else {
			d.CurNs = c.NsPerOp
			d.CurAllocs = c.AllocsPerOp
			d.CurBytes = c.BytesPerOp
			if base.NsPerOp > 0 {
				d.Ratio = c.NsPerOp / base.NsPerOp
			}
			switch {
			case d.Ratio > nsThreshold:
				d.Reason = fmt.Sprintf("ns/op %.2fx over snapshot (limit %.2fx)", d.Ratio, nsThreshold)
			case c.AllocsPerOp > base.AllocsPerOp:
				d.Reason = fmt.Sprintf("allocs/op grew %d -> %d", base.AllocsPerOp, c.AllocsPerOp)
			case improveThreshold > 0 && d.Ratio > 0 && d.Ratio*improveThreshold < 1:
				d.Reason = fmt.Sprintf("ns/op improved %.2fx, beyond the %.2fx gate — stale snapshot, refresh with `make bench-snapshot`",
					1/d.Ratio, improveThreshold)
			}
		}
		d.OK = d.Reason == ""
		if !d.OK {
			allOK = false
		}
		deltas = append(deltas, d)
	}
	return deltas, allOK
}

// Table renders the deltas as an aligned, readable report.
func Table(deltas []Delta, nsThreshold, improveThreshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %10s %10s %7s %8s %8s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "ratio", "allocs", "status", "")
	for _, d := range deltas {
		status, note := "ok", ""
		if !d.OK {
			status, note = "FAIL", d.Reason
		}
		fmt.Fprintf(&b, "%-32s %10.1f %10.1f %6.2fx %4d->%-3d %8s  %s\n",
			d.Name, d.BaseNs, d.CurNs, d.Ratio, d.BaseAllocs, d.CurAllocs, status, note)
	}
	fmt.Fprintf(&b, "gate: ns/op limit %.2fx of snapshot; allocs/op may not grow", nsThreshold)
	if improveThreshold > 0 {
		fmt.Fprintf(&b, "; improvements beyond %.2fx require a snapshot refresh", improveThreshold)
	}
	b.WriteByte('\n')
	return b.String()
}
