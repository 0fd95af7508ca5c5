package absmodel

import (
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/topo"
)

func kunpengSameNode() ([2]topo.CoreID, *platform.Platform) {
	p := platform.Kunpeng916()
	n0 := p.Sys.NodeCores(0)
	return [2]topo.CoreID{n0[0], n0[4]}, p
}

func kunpengCrossNode() ([2]topo.CoreID, *platform.Platform) {
	p := platform.Kunpeng916()
	return [2]topo.CoreID{p.Sys.NodeCores(0)[0], p.Sys.NodeCores(1)[0]}, p
}

func tput(p *platform.Platform, cores [2]topo.CoreID, pat MemPattern, v Variant, nops int) float64 {
	return Run(Config{Plat: p, Cores: cores, Pattern: pat, Variant: v, Nops: nops, Seed: 1}).Throughput()
}

func TestObs1IntrinsicOverheadOrdering(t *testing.T) {
	// Figure 2 / Obs 1: with no memory operations, DSB >> ISB > DMB ≈
	// none, and DMB/DSB options do not differ among themselves.
	cores, p := kunpengSameNode()
	none := tput(p, cores, NoMem, Variant{Barrier: isa.None}, 30)
	dmb := tput(p, cores, NoMem, Variant{Barrier: isa.DMBFull, Loc: Loc2}, 30)
	dmbSt := tput(p, cores, NoMem, Variant{Barrier: isa.DMBSt, Loc: Loc2}, 30)
	isb := tput(p, cores, NoMem, Variant{Barrier: isa.ISB, Loc: Loc2}, 30)
	dsb := tput(p, cores, NoMem, Variant{Barrier: isa.DSBFull, Loc: Loc2}, 30)
	dsbLd := tput(p, cores, NoMem, Variant{Barrier: isa.DSBLd, Loc: Loc2}, 30)

	if !(dsb < isb && isb < dmb) {
		t.Errorf("Obs1 ordering broken: DSB=%g ISB=%g DMB=%g", dsb, isb, dmb)
	}
	if dmb < 0.5*none {
		t.Errorf("DMB without memory ops should be light: DMB=%g none=%g", dmb, none)
	}
	if rel := dmbSt / dmb; rel < 0.8 || rel > 1.25 {
		t.Errorf("DMB options should not differ without memory ops: st/full=%g", rel)
	}
	if rel := dsbLd / dsb; rel < 0.8 || rel > 1.25 {
		t.Errorf("DSB options should not differ without memory ops: ld/full=%g", rel)
	}
}

func TestObs2BarrierLocationMatters(t *testing.T) {
	// Figure 3 / Obs 2: a barrier strictly after the RMR (Loc1) hurts
	// far more than one after the nop padding (Loc2).
	cores, p := kunpengCrossNode()
	const nops = 700
	full1 := tput(p, cores, TwoStores, Variant{Barrier: isa.DMBFull, Loc: Loc1}, nops)
	full2 := tput(p, cores, TwoStores, Variant{Barrier: isa.DMBFull, Loc: Loc2}, nops)
	if full1 >= 0.8*full2 {
		t.Errorf("Obs2: DMB full-1 (%g) should be well below DMB full-2 (%g)", full1, full2)
	}
}

func TestFig4TippingPointHalvesThroughput(t *testing.T) {
	for _, setup := range []struct {
		name  string
		cores [2]topo.CoreID
		p     *platform.Platform
	}{
		{name: "same-node"}, {name: "cross-node"},
	} {
		var cores [2]topo.CoreID
		var p *platform.Platform
		if setup.name == "same-node" {
			cores, p = kunpengSameNode()
		} else {
			cores, p = kunpengCrossNode()
		}
		nops, ratio := TippingPoint(p, cores, 0.95, 1)
		if nops < 0 {
			t.Fatalf("%s: no tipping point found", setup.name)
		}
		if ratio < 0.35 || ratio > 0.68 {
			t.Errorf("%s: tipping ratio DMBfull-1/DMBfull-2 = %g at %d nops, want ≈ 0.5",
				setup.name, ratio, nops)
		}
	}
}

func TestObs3STLRNotAlwaysBetter(t *testing.T) {
	// Obs 3: STLR can be slower than the stronger DMB full (at Loc2).
	cores, p := kunpengSameNode()
	const nops = 150
	stlr := tput(p, cores, TwoStores, Variant{Barrier: isa.STLR}, nops)
	full2 := tput(p, cores, TwoStores, Variant{Barrier: isa.DMBFull, Loc: Loc2}, nops)
	dsb := tput(p, cores, TwoStores, Variant{Barrier: isa.DSBFull, Loc: Loc2}, nops)
	st := tput(p, cores, TwoStores, Variant{Barrier: isa.DMBSt, Loc: Loc2}, nops)
	if stlr >= full2 {
		t.Errorf("Obs3: STLR (%g) should underperform DMB full-2 (%g) on the server", stlr, full2)
	}
	if !(stlr > dsb && stlr < st) {
		t.Errorf("Obs3: STLR (%g) should lie between DSB (%g) and DMB st (%g)", stlr, dsb, st)
	}
}

func TestObs4ServerVariationLargerThanMobile(t *testing.T) {
	// Obs 4: the spread between no-barrier and DSB is far larger on the
	// server than on the mobile parts at the same padding.
	spread := func(p *platform.Platform, cores [2]topo.CoreID) float64 {
		none := tput(p, cores, TwoStores, Variant{Barrier: isa.None}, 30)
		dsb := tput(p, cores, TwoStores, Variant{Barrier: isa.DSBFull, Loc: Loc1}, 30)
		return none / dsb
	}
	kpCores, kp := kunpengSameNode()
	serverSpread := spread(kp, kpCores)
	k9 := platform.Kirin960()
	big := k9.Sys.CoresOfClass(topo.Big)
	mobileSpread := spread(k9, [2]topo.CoreID{big[0], big[1]})
	if serverSpread <= mobileSpread {
		t.Errorf("Obs4: server spread (%g) should exceed mobile spread (%g)",
			serverSpread, mobileSpread)
	}
}

func TestObs5CrossingNodesIsAKiller(t *testing.T) {
	// Obs 5: DMB full benefits from same-node binding; DSB does not.
	sameCores, p1 := kunpengSameNode()
	crossCores, p2 := kunpengCrossNode()
	const nops = 50
	fullSame := tput(p1, sameCores, TwoStores, Variant{Barrier: isa.DMBFull, Loc: Loc1}, nops)
	fullCross := tput(p2, crossCores, TwoStores, Variant{Barrier: isa.DMBFull, Loc: Loc1}, nops)
	if fullSame < 1.5*fullCross {
		t.Errorf("Obs5: DMB full same-node (%g) should be much faster than cross-node (%g)",
			fullSame, fullCross)
	}
	dsbSame := tput(p1, sameCores, TwoStores, Variant{Barrier: isa.DSBFull, Loc: Loc1}, nops)
	dsbCross := tput(p2, crossCores, TwoStores, Variant{Barrier: isa.DSBFull, Loc: Loc1}, nops)
	// DSB pays the domain-boundary trip regardless: locality gain small.
	if dsbSame > 1.6*dsbCross {
		t.Errorf("Obs5: DSB should not benefit strongly from locality (same=%g cross=%g)",
			dsbSame, dsbCross)
	}
	// And the DSB:DMB gap widens on one node.
	gapSame := fullSame / dsbSame
	gapCross := fullCross / dsbCross
	if gapSame <= gapCross {
		t.Errorf("Obs5: DMB/DSB variation should increase same-node (same=%g cross=%g)",
			gapSame, gapCross)
	}
}

func TestObs6DependenciesBeatBusBarriers(t *testing.T) {
	// Figure 5 / Obs 6: dependencies and DMB ld/LDAR vastly outperform
	// bus-involving barriers for load->store ordering.
	cores, p := kunpengCrossNode()
	const nops = 300
	dep := tput(p, cores, LoadStore, Variant{Barrier: isa.DataDep}, nops)
	addr := tput(p, cores, LoadStore, Variant{Barrier: isa.AddrDep}, nops)
	ldar := tput(p, cores, LoadStore, Variant{Barrier: isa.LDAR}, nops)
	dmbLd := tput(p, cores, LoadStore, Variant{Barrier: isa.DMBLd, Loc: Loc1}, nops)
	full1 := tput(p, cores, LoadStore, Variant{Barrier: isa.DMBFull, Loc: Loc1}, nops)
	dsb1 := tput(p, cores, LoadStore, Variant{Barrier: isa.DSBFull, Loc: Loc1}, nops)
	none := tput(p, cores, LoadStore, Variant{Barrier: isa.None}, nops)
	ctrlISB := tput(p, cores, LoadStore, Variant{Barrier: isa.CtrlISB}, nops)

	for name, v := range map[string]float64{"DATA": dep, "ADDR": addr, "LDAR": ldar, "DMB ld": dmbLd} {
		if v < 0.85*none {
			t.Errorf("Obs6: %s (%g) should be close to no-barrier (%g)", name, v, none)
		}
		if v < 1.5*dsb1 {
			t.Errorf("Obs6: %s (%g) should far outperform DSB-1 (%g)", name, v, dsb1)
		}
	}
	if dep <= full1 {
		t.Errorf("Obs6: DATA dep (%g) should beat DMB full-1 (%g)", dep, full1)
	}
	if ctrlISB >= dep {
		t.Errorf("Obs6: CTRL+ISB (%g) should cost more than a plain dependency (%g)", ctrlISB, dep)
	}
}

func TestDeterministicResults(t *testing.T) {
	cores, p := kunpengSameNode()
	cfg := Config{Plat: p, Cores: cores, Pattern: TwoStores,
		Variant: Variant{Barrier: isa.DMBFull, Loc: Loc1}, Nops: 100, Seed: 5}
	a := Run(cfg)
	b := Run(cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("same seed must give same cycles: %g vs %g", a.Cycles, b.Cycles)
	}
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Variant{
		"No Barrier": {Barrier: isa.None},
		"DMB full-1": {Barrier: isa.DMBFull, Loc: Loc1},
		"DSB st-2":   {Barrier: isa.DSBSt, Loc: Loc2},
		"STLR":       {Barrier: isa.STLR},
		"LDAR":       {Barrier: isa.LDAR},
		"ADDR DEP":   {Barrier: isa.AddrDep},
	}
	for want, v := range cases {
		if got := v.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestSTLRPlatformSpecific(t *testing.T) {
	// The paper's Figure 3 shows STLR is nearly free on the Kirin SoCs
	// (≈90% of no-barrier) while being DSB-grade on the Pi and between
	// DSB and DMB st on the server — Obs 3 is platform-specific.
	ratio := func(p *platform.Platform) float64 {
		big := p.Sys.CoresOfClass(topo.Big)
		cores := [2]topo.CoreID{big[0], big[1]}
		stlr := tput(p, cores, TwoStores, Variant{Barrier: isa.STLR}, 30)
		none := tput(p, cores, TwoStores, Variant{Barrier: isa.None}, 30)
		return stlr / none
	}
	if r := ratio(platform.Kirin960()); r < 0.55 {
		t.Errorf("Kirin960 STLR/none = %.2f, want cheap (> 0.55)", r)
	}
	if r := ratio(platform.RaspberryPi4()); r > 0.45 {
		t.Errorf("RaspberryPi4 STLR/none = %.2f, want expensive (< 0.45)", r)
	}
}

func TestMobileVsServerDSBGap(t *testing.T) {
	// Obs 4 from the Figure-2 angle: the intrinsic DSB gap is an order
	// of magnitude larger on the server.
	gap := func(p *platform.Platform, a, b topo.CoreID) float64 {
		none := tput(p, [2]topo.CoreID{a, b}, NoMem, Variant{Barrier: isa.None}, 30)
		dsb := tput(p, [2]topo.CoreID{a, b}, NoMem, Variant{Barrier: isa.DSBFull, Loc: Loc2}, 30)
		return none / dsb
	}
	kp := platform.Kunpeng916()
	k9 := platform.Kirin960()
	big := k9.Sys.CoresOfClass(topo.Big)
	serverGap := gap(kp, kp.Sys.NodeCores(0)[0], kp.Sys.NodeCores(0)[4])
	mobileGap := gap(k9, big[0], big[1])
	if serverGap < 3*mobileGap {
		t.Errorf("server DSB gap (%.1fx) should dwarf mobile (%.1fx)", serverGap, mobileGap)
	}
}

func TestLoadLoadPatternOrderingCosts(t *testing.T) {
	// The Table-3 load->loads row, measured: ADDR DEP ≈ LDAR ≈ LDAPR ≈
	// DMB ld ≈ no barrier; CTRL+ISB pays the flush; the bus barriers
	// pay the bus.
	cores, p := kunpengCrossNode()
	const nops = 300
	get := func(v Variant) float64 { return tput(p, cores, LoadLoad, v, nops) }
	none := get(Variant{Barrier: isa.None})
	addr := get(Variant{Barrier: isa.AddrDep})
	ldar := get(Variant{Barrier: isa.LDAR})
	ldapr := get(Variant{Barrier: isa.LDAPR})
	dmbLd := get(Variant{Barrier: isa.DMBLd, Loc: Loc1})
	ctrlISB := get(Variant{Barrier: isa.CtrlISB})
	dsb := get(Variant{Barrier: isa.DSBFull, Loc: Loc1})

	for name, v := range map[string]float64{"ADDR": addr, "LDAR": ldar, "LDAPR": ldapr, "DMB ld": dmbLd} {
		if v < 0.8*none {
			t.Errorf("load-load: %s (%g) should be near no-barrier (%g)", name, v, none)
		}
	}
	if ctrlISB >= addr {
		t.Errorf("load-load: CTRL+ISB (%g) should cost more than ADDR DEP (%g)", ctrlISB, addr)
	}
	// With no stores in flight even DMB full terminates internally, so
	// the bus-cost contrast in a pure load loop is DSB (which always
	// pays the domain-boundary trip).
	if dsb >= 0.5*dmbLd {
		t.Errorf("load-load: DSB (%g) should trail DMB ld (%g) badly", dsb, dmbLd)
	}
}

func TestA64ModelAgreesWithClosureModel(t *testing.T) {
	// The verbatim Algorithm-1 assembly and Run's micro-op program are
	// two encodings of the same program; their throughputs must agree
	// closely for every barrier variant.
	cores, p := kunpengSameNode()
	for _, v := range []Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: Loc1},
		{Barrier: isa.DMBSt, Loc: Loc2},
		{Barrier: isa.DSBFull, Loc: Loc1},
		{Barrier: isa.STLR},
	} {
		cfg := Config{Plat: p, Cores: cores, Pattern: TwoStores,
			Variant: v, Nops: 60, Iters: 600, Seed: 9}
		goRes := Run(cfg)
		asmRes, err := RunA64(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		ratio := asmRes.Throughput() / goRes.Throughput()
		if ratio < 0.65 || ratio > 1.5 {
			t.Errorf("%s: a64 (%.3g) vs closure (%.3g) diverge: ratio %.2f",
				v.Name(), asmRes.Throughput(), goRes.Throughput(), ratio)
		}
	}
}

func TestAlgorithm1SourceRendering(t *testing.T) {
	src := Algorithm1Source(Variant{Barrier: isa.DMBSt, Loc: Loc1}, 3)
	for _, want := range []string{"loop:", "dmb ishst", "ble loop"} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q:\n%s", want, src)
		}
	}
	if n := strings.Count(src, "nop"); n != 3 {
		t.Errorf("nop count = %d, want 3", n)
	}
	stlr := Algorithm1Source(Variant{Barrier: isa.STLR}, 0)
	if !strings.Contains(stlr, "stlr x4, [x1]") {
		t.Errorf("STLR variant should release the second store:\n%s", stlr)
	}
}
