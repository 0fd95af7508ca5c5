package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain summarizes one set of measured runs, or compares a base
// set with a new one, per (workload, end-to-end metric). Each set is a
// file holding the standard output of any number of runs.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding each metric's bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: perfbench compare [-bench BENCHMARK.json] RUNS [NEW_RUNS]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *specPath, err)
		return 2
	}
	sets := make([]map[string][]*record, fs.NArg())
	for i, path := range fs.Args() {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	worse := false
	if len(sets) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tn\tmedian\tq1\tq3\tspread\tbound\tsteady")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase spread\tnew median\tnew spread\tchange\tbound\tverdict")
	}
	for _, wl := range sortedKeys(sets[0]) {
		for _, m := range spec.EndToEnd {
			base := metricValues(sets[0][wl], m.Name)
			bs := summarize(base)
			if len(sets) == 1 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%v\n",
					wl, m.Name, len(base), bs.median, bs.q1, bs.q3, bs.spread, m.Bound, bs.spread < m.Bound/3)
				continue
			}
			next := metricValues(sets[1][wl], m.Name)
			ns := summarize(next)
			v := verdict(base, next, m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4f\t%.6g\t%.4f\t%+.4f\t%.2f\t%s\n",
				wl, m.Name, bs.median, bs.spread, ns.median, ns.spread, relChange(bs.median, ns.median), m.Bound, v)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

// readRecords collects the measured (untraced) run records in a file
// of run output, by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var line struct{ Record *record }
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Record == nil || line.Record.Context.Trace {
			continue
		}
		out[line.Record.Context.Workload] = append(out[line.Record.Context.Workload], line.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

func metricValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

type summary struct{ median, q1, q3, spread float64 }

// summarize gives the median and quartiles as Python's
// statistics.quantiles(values, n=4) computes them, and the spread:
// the interquartile distance as a share of the median.
func summarize(xs []float64) summary {
	med := median(xs)
	q1, q3 := quantile(xs, 1, 4), quantile(xs, 3, 4)
	return summary{med, q1, q3, ratio(q3-q1, med)}
}

// relChange is the new median's change relative to the base median.
func relChange(base, next float64) float64 { return ratio(next-base, base) }

// verdict classifies new against base: worse when the new median is
// worse by more than bound, unresolved when either set spreads wider
// than bound (unless every new run beats every base run), else within.
func verdict(base, next []float64, better string, bound float64) string {
	if len(base) == 0 || len(next) == 0 {
		return "missing"
	}
	bs, ns := summarize(base), summarize(next)
	loss := relChange(bs.median, ns.median)
	if better == "higher" {
		loss = -loss
	}
	if bs.spread > bound || ns.spread > bound {
		lo, hi := minMax(next)
		bl, bh := minMax(base)
		if (better == "higher" && lo > bh) || (better != "higher" && hi < bl) {
			return "better"
		}
		return "unresolved"
	}
	if loss > bound {
		return "worse"
	}
	return "within"
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
