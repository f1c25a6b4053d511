// Command design-explorer sweeps a redundancy design space of the paper's
// example network, applies the Eq. 3 / Eq. 4 administrator bounds, and
// reports the Pareto front and the cost-optimal design — the decision
// workflow of the paper's §IV generalized to larger spaces (§V).
//
// Usage:
//
//	design-explorer [-max N] [-max-asp phi] [-min-coa psi]
//	                [-max-noev xi] [-max-noap omega] [-max-noep kappa]
//	                [-server-cost c] [-downtime-cost c] [-breach-loss c]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"redpatch"

	"redpatch/internal/paperdata"
	"redpatch/internal/report"
)

func main() {
	var (
		maxPerTier   = flag.Int("max", 2, "maximum replicas per tier")
		maxASP       = flag.Float64("max-asp", 0.2, "Eq. 3/4 upper bound on after-patch ASP (phi)")
		minCOA       = flag.Float64("min-coa", 0.9962, "Eq. 3/4 lower bound on COA (psi)")
		maxNoEV      = flag.Int("max-noev", 0, "Eq. 4 upper bound on NoEV (xi); 0 disables Eq. 4 filtering")
		maxNoAP      = flag.Int("max-noap", 0, "Eq. 4 upper bound on NoAP (omega)")
		maxNoEP      = flag.Int("max-noep", 0, "Eq. 4 upper bound on NoEP (kappa)")
		serverCost   = flag.Float64("server-cost", 400, "monthly cost per server")
		downtimeCost = flag.Float64("downtime-cost", 2000, "cost per lost capacity-hour")
		breachLoss   = flag.Float64("breach-loss", 50000, "loss of a successful compromise")
	)
	flag.Parse()
	if err := run(os.Stdout, *maxPerTier, *maxASP, *minCOA, *maxNoEV, *maxNoAP, *maxNoEP,
		redpatch.CostModel{ServerPerMonth: *serverCost, DowntimePerHour: *downtimeCost, BreachLoss: *breachLoss}); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, maxPerTier int, maxASP, minCOA float64, maxNoEV, maxNoAP, maxNoEP int, cost redpatch.CostModel) error {
	if maxPerTier < 1 {
		return fmt.Errorf("design-explorer: -max must be at least 1, have %d", maxPerTier)
	}
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}
	// One engine sweep yields the whole space (evaluated concurrently and
	// memoized) together with its Pareto front.
	var req redpatch.SpecSweepRequest
	for _, role := range paperdata.Roles() {
		req.Tiers = append(req.Tiers, redpatch.TierSweep{Role: role, Min: 1, Max: maxPerTier})
	}
	sweep, err := study.SweepSpec(context.Background(), req)
	if err != nil {
		return err
	}
	designs := sweep.Reports

	tbl := report.NewTable(fmt.Sprintf("design space (%d designs, 1..%d replicas per tier)", len(designs), maxPerTier),
		"design", "servers", "ASP after", "NoEV", "NoAP", "NoEP", "COA", "monthly cost")
	for _, d := range designs {
		tbl.AddRow(d.Description, report.I(d.Servers), report.F(d.After.ASP, 4),
			report.I(d.After.NoEV), report.I(d.After.NoAP), report.I(d.After.NoEP),
			report.F(d.COA, 6), report.F(cost.MonthlyCost(d), 0))
	}
	fmt.Fprintln(w, tbl.Render())

	var satisfying []redpatch.DesignReport
	if maxNoEV > 0 {
		satisfying = redpatch.FilterMulti(designs, redpatch.MultiBounds{
			MaxASP: maxASP, MaxNoEV: maxNoEV, MaxNoAP: maxNoAP, MaxNoEP: maxNoEP, MinCOA: minCOA,
		})
		fmt.Fprintf(w, "Eq. 4 bounds (phi=%.3g xi=%d omega=%d kappa=%d psi=%.5g): %d design(s)\n",
			maxASP, maxNoEV, maxNoAP, maxNoEP, minCOA, len(satisfying))
	} else {
		satisfying = redpatch.FilterScatter(designs, redpatch.ScatterBounds{MaxASP: maxASP, MinCOA: minCOA})
		fmt.Fprintf(w, "Eq. 3 bounds (phi=%.3g psi=%.5g): %d design(s)\n", maxASP, minCOA, len(satisfying))
	}
	for _, d := range satisfying {
		fmt.Fprintf(w, "  %s  (ASP %.4f, COA %.6f)\n", d.Description, d.After.ASP, d.COA)
	}
	fmt.Fprintln(w)

	front := sweep.Pareto
	fmt.Fprintf(w, "Pareto front (minimize ASP, maximize COA): %d design(s)\n", len(front))
	for _, d := range front {
		fmt.Fprintf(w, "  %s  (ASP %.4f, COA %.6f)\n", d.Description, d.After.ASP, d.COA)
	}
	fmt.Fprintln(w)

	pool := satisfying
	if len(pool) == 0 {
		pool = designs
		fmt.Fprintln(w, "no design satisfies the bounds; costing the whole space instead")
	}
	best := pool[0]
	for _, d := range pool[1:] {
		if cost.MonthlyCost(d) < cost.MonthlyCost(best) {
			best = d
		}
	}
	fmt.Fprintf(w, "cost-optimal design: %s at %.0f per month\n", best.Description, cost.MonthlyCost(best))
	return nil
}
