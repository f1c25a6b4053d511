// Command patch-planner supports the operational decisions around a patch
// round on the paper's example network: which vulnerabilities buy the
// most security (network-level risk ranking), how to split a server's
// patches across constrained maintenance windows (campaign planning), and
// how often the service will drop out under the chosen design (mean time
// to service outage).
//
// Usage:
//
//	patch-planner [-dns N] [-web N] [-app N] [-db N]
//	              [-role name] [-window minutes] [-top k]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"redpatch"

	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/report"
)

func main() {
	var (
		dns    = flag.Int("dns", 1, "DNS replicas")
		web    = flag.Int("web", 2, "web replicas")
		app    = flag.Int("app", 2, "application replicas")
		db     = flag.Int("db", 1, "database replicas")
		role   = flag.String("role", "app", "server role to plan a campaign for (dns|web|app|db|webalt)")
		window = flag.Int("window", 35, "maintenance window per round, minutes")
		top    = flag.Int("top", 5, "number of ranked vulnerabilities to show")
	)
	flag.Parse()
	if err := run(os.Stdout, *dns, *web, *app, *db, *role, *window, *top); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, dns, web, app, db int, role string, windowMinutes, top int) error {
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}
	spec := redpatch.ClassicSpec("plan", dns, web, app, db)

	// Part 1: which single patch buys the most?
	ranked, err := study.RankPatchesSpec(spec)
	if err != nil {
		return err
	}
	if top > len(ranked) {
		top = len(ranked)
	}
	tbl := report.NewTable(fmt.Sprintf("top %d patches by network risk reduction (%d DNS + %d WEB + %d APP + %d DB)",
		top, dns, web, app, db),
		"rank", "CVE", "hosts", "risk reduction", "network ASP if patched alone")
	for i, r := range ranked[:top] {
		tbl.AddRow(report.I(i+1), r.CVE, strings.Join(r.Hosts, " "),
			report.F(r.RiskReduction, 2), report.F(r.ASPAfter, 4))
	}
	fmt.Fprintln(w, tbl.Render())

	// Part 2: campaign for one role under a constrained window.
	vdb := paperdata.VulnDB()
	vulns, err := paperdata.VulnsForRole(vdb, role)
	if err != nil {
		return err
	}
	camp, err := patch.PlanCampaign(role, vulns, patch.CriticalPolicy(), patch.MonthlySchedule(),
		time.Duration(windowMinutes)*time.Minute)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign for the %s server with %d-minute windows: %d round(s), %v total downtime\n",
		role, windowMinutes, camp.TotalRounds(), camp.TotalDowntime())
	for i, r := range camp.Rounds {
		var ids []string
		for _, v := range r.Selected {
			ids = append(ids, v.ID)
		}
		fmt.Fprintf(w, "  round %d (%v down): %s\n", i+1, r.TotalDowntime(), strings.Join(ids, ", "))
	}
	for _, v := range camp.Deferred {
		fmt.Fprintf(w, "  deferred (exceeds window even alone): %s\n", v.ID)
	}
	fmt.Fprintln(w)

	// Part 3: how often does the design lose the whole service?
	mttf, err := study.MeanTimeToServiceOutageSpec(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mean time to patch-induced service outage: %.1f h (%.1f days)\n", mttf, mttf/24)
	return nil
}
