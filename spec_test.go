package redpatch

import (
	"context"
	"testing"
)

// TestHeterogeneousFacadeSweep drives the §V variant deployment through
// the public facade: sweeping the web tier across both stacks yields a
// non-empty Pareto front, and the variant designs carry distinct names,
// descriptions and metrics.
func TestHeterogeneousFacadeSweep(t *testing.T) {
	s, _ := caseStudy(t)
	sum, err := s.SweepSpec(context.Background(), SpecSweepRequest{Tiers: []TierSweep{
		{Role: "dns", Min: 1, Max: 1},
		{Role: "web", Min: 2, Max: 2, Variants: []string{"", "webalt"}},
		{Role: "app", Min: 1, Max: 1},
		{Role: "db", Min: 1, Max: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 2 || len(sum.Reports) != 2 {
		t.Fatalf("total = %d, reports = %d, want 2", sum.Total, len(sum.Reports))
	}
	if len(sum.Pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	apache, nginx := sum.Reports[0], sum.Reports[1]
	if apache.Name != "1d2w1a1b" {
		t.Errorf("homogeneous name = %q", apache.Name)
	}
	if nginx.Name != "1dns-2web/webalt-1app-1db" {
		t.Errorf("variant name = %q", nginx.Name)
	}
	if nginx.Description != "1 DNS + 2 WEB/WEBALT + 1 APP + 1 DB" {
		t.Errorf("variant description = %q", nginx.Description)
	}
	if apache.After.ASP == nginx.After.ASP && apache.After.NoEV == nginx.After.NoEV {
		t.Error("variant stack evaluated identically to the base stack")
	}
}

// TestMixedTierSpec evaluates one heterogeneous logical tier (Apache +
// Nginx replicas side by side) through the facade — the deployment shape
// the example program builds by hand.
func TestMixedTierSpec(t *testing.T) {
	s, _ := caseStudy(t)
	hetero, err := s.EvaluateSpec(DesignSpec{Tiers: []TierSpec{
		{Role: "dns", Replicas: 1},
		{Role: "web", Replicas: 1},
		{Role: "web", Replicas: 1, Variant: "webalt"},
		{Role: "app", Replicas: 1},
		{Role: "db", Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	homog, err := s.EvaluateSpec(ClassicSpec("", 1, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Servers != 5 {
		t.Errorf("servers = %d, want 5", hetero.Servers)
	}
	// Mixed stacks share no vulnerability, so the surviving exploit
	// chain is strictly harder than the homogeneous pair's.
	if hetero.After.ASP >= homog.After.ASP {
		t.Errorf("mixed-tier after-patch ASP = %v, want below homogeneous %v",
			hetero.After.ASP, homog.After.ASP)
	}
	if hetero.COA <= 0 || hetero.COA > 1 {
		t.Errorf("implausible COA %v", hetero.COA)
	}
	if hetero.Name != "1dns-1web-1web/webalt-1app-1db" {
		t.Errorf("canonical name = %q", hetero.Name)
	}
}

// TestSpecValidationAtFacade pins facade-level validation failures.
func TestSpecValidationAtFacade(t *testing.T) {
	s, _ := caseStudy(t)
	for name, spec := range map[string]DesignSpec{
		"no tiers":      {},
		"zero replicas": {Tiers: []TierSpec{{Role: "web", Replicas: 0}}},
		"unknown stack": {Tiers: []TierSpec{{Role: "mainframe", Replicas: 1}}},
		"unknown variant": {Tiers: []TierSpec{
			{Role: "web", Replicas: 1, Variant: "iis"}}},
	} {
		if _, err := s.EvaluateSpec(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
