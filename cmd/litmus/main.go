// Command litmus samples every litmus shape on a simulated platform
// and prints outcome histograms under both the weakly-ordered model
// and TSO, once with no barriers and once with every barrier slot
// filled. MP with no barriers is the paper's Table 1: the anomaly
// (flag set, local != 23) is allowed under WMM and forbidden under
// TSO; the filled placements show the barriers that forbid each
// shape's anomaly.
//
// Usage:
//
//	litmus [-runs N] [-seed N] [-platform name]
package main

import (
	"flag"
	"fmt"
	"os"

	"armbar/internal/explore"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

func main() {
	runs := flag.Int("runs", 1000, "iterations per test")
	seed := flag.Int64("seed", 42, "base seed")
	plat := flag.String("platform", "Kunpeng916", "platform model name")
	flag.Parse()

	p := platform.ByName(*plat)
	if p == nil {
		fmt.Fprintf(os.Stderr, "litmus: unknown platform %q\n", *plat)
		os.Exit(2)
	}

	for _, s := range explore.All() {
		pls := []explore.Placement{0}
		if n := explore.Naive(s); n != 0 {
			pls = append(pls, n)
		}
		for _, pl := range pls {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				res, err := explore.Sample(p, s, pl, mode, *runs, *seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
					os.Exit(1)
				}
				fmt.Println(res.String())
			}
		}
	}
}
