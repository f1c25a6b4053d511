// Enterprise: the paper's full case study walked through the three
// phases of its Fig. 1 — data input (topology, vulnerability database,
// attack trees, patch policy and schedule), model construction (the
// two-layered HARM before and after the patch round, the per-role
// lower-layer availability models and the upper-layer network model)
// and evaluation — printing each intermediate model on the way to the
// combined security and availability report. The security models are
// built with internal/harm; the availability models and the final
// evaluation come from the same redundancy.Evaluator the facade uses.
package main

import (
	"fmt"
	"log"

	"redpatch/internal/attacktree"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
	"redpatch/internal/report"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// ---- Phase 1: data input -------------------------------------------
	db := paperdata.VulnDB()
	spec := paperdata.BaseDesign().Spec()
	top, err := paperdata.SpecTopology(spec)
	if err != nil {
		return err
	}
	policy := patch.CriticalPolicy()

	// ---- Phase 2: model construction -----------------------------------
	before, err := harm.Build(harm.BuildInput{
		Topology:    top,
		Trees:       paperdata.Trees(db),
		TargetRoles: spec.TargetStacks(),
	})
	if err != nil {
		return err
	}
	after, err := before.Patched(func(_ string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !policy.Selects(v)
	})
	if err != nil {
		return err
	}
	fmt.Println("security models (two-layered HARM):")
	fmt.Printf("  before patch: %d attackable hosts, targets %v\n", len(before.Upper().Nodes())-1, before.Targets())
	fmt.Printf("  after  patch: %d attackable hosts, targets %v\n", len(after.Upper().Nodes())-1, after.Targets())
	for _, host := range []string{"dns1", "web1", "app1", "db1"} {
		fmt.Printf("  %-5s AT before: %-75s after: %s\n", host, before.Tree(host), after.Tree(host))
	}
	fmt.Println()

	// The evaluator solves the lower-layer model of every role under the
	// critical policy and the monthly schedule when it is built.
	eval, err := redundancy.NewEvaluator(redundancy.Options{Policy: &policy})
	if err != nil {
		return err
	}
	rates, plans := eval.AggregatedRates(), eval.Plans()
	tbl := report.NewTable("availability models (lower-layer SRNs, aggregated)",
		"role", "replicas", "patch window", "MTTR (h)", "recovery rate")
	for _, t := range spec.Tiers {
		tbl.AddRow(t.Role, report.I(t.Replicas), plans[t.Role].TotalDowntime().String(),
			report.F(rates[t.Role].MTTR(), 4), report.F(rates[t.Role].MuEq, 5))
	}
	fmt.Println(tbl.Render())
	nm, err := eval.NetworkModelFor(spec)
	if err != nil {
		return err
	}
	fmt.Printf("upper-layer network model: %d tiers, %d servers\n\n", len(nm.Tiers), nm.TotalServers())

	// ---- Phase 3: evaluation -------------------------------------------
	rep, err := eval.EvaluateSpec(spec)
	if err != nil {
		return err
	}
	out := report.NewTable("combined evaluation", "measure", "before patch", "after patch")
	out.AddRow("AIM", report.F(rep.Before.AIM, 1), report.F(rep.After.AIM, 1))
	out.AddRow("ASP", report.F(rep.Before.ASP, 4), report.F(rep.After.ASP, 4))
	out.AddRow("NoEV", report.I(rep.Before.NoEV), report.I(rep.After.NoEV))
	out.AddRow("NoAP", report.I(rep.Before.NoAP), report.I(rep.After.NoAP))
	out.AddRow("NoEP", report.I(rep.Before.NoEP), report.I(rep.After.NoEP))
	fmt.Println(out.Render())
	fmt.Printf("capacity oriented availability: %.5f (paper: 0.99707)\n", rep.COA)
	fmt.Printf("service availability:           %.5f\n", rep.ServiceAvailability)
	return nil
}
