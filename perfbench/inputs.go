package main

// Seeded input generation. Every request body the daemon receives is
// built here from the --seed argument, so one seed always produces the
// same inputs and the daemon never sees anything else.

import (
	"fmt"
	"math/rand"

	"redpatch"
	"redpatch/internal/fleet"
)

// heldOutSeed is kept out of every tuning run; a later change that
// claims a gain must also show it on this seed.
const heldOutSeed = 90173

// Sizes fixed by the benchmark, not by the seed, so that every seed
// costs the same amount of work.
const (
	poolSize      = 256  // distinct evaluate-warm specs
	coldPerTier   = 5    // policy-cold: 5^4 = 625 designs per sweep
	warmPerTier   = 8    // sweep-warm: 8^4 = 4096 designs, the default -max-designs cap
	rolloutDesign = 3    // policy-cold: rollout sweeps per cycle
	fleetSystems  = 1000 // fleet-plan registry size
)

var classicRoles = []string{"dns", "web", "app", "db"}

// baseSpec is the paper's base design (1 DNS, 2 WEB, 2 APP, 1 DB), whose
// COA and after-patch ASP are printed in its Tables II and VI.
func baseSpec() redpatch.DesignSpec {
	return redpatch.ClassicSpec("", 1, 2, 2, 1)
}

// evalPool draws poolSize distinct specs of 3 to 5 tier groups with 1 to
// 4 replicas each; the 5-group shape deploys a webalt group beside the
// web group. The base design is always entry 0.
func evalPool(rng *rand.Rand) []redpatch.DesignSpec {
	pool := []redpatch.DesignSpec{baseSpec()}
	seen := map[string]bool{pool[0].Key(): true}
	for len(pool) < poolSize {
		var tiers []redpatch.TierSpec
		r := func() int { return 1 + rng.Intn(4) }
		switch u := rng.Float64(); {
		case u < 0.2:
			tiers = []redpatch.TierSpec{{Role: "web", Replicas: r()}, {Role: "app", Replicas: r()}, {Role: "db", Replicas: r()}}
		case u < 0.75:
			tiers = []redpatch.TierSpec{{Role: "dns", Replicas: r()}, {Role: "web", Replicas: r()}, {Role: "app", Replicas: r()}, {Role: "db", Replicas: r()}}
		default:
			tiers = []redpatch.TierSpec{{Role: "dns", Replicas: r()}, {Role: "web", Replicas: r()},
				{Role: "web", Replicas: r(), Variant: "webalt"}, {Role: "app", Replicas: r()}, {Role: "db", Replicas: r()}}
		}
		s := redpatch.DesignSpec{Tiers: tiers}
		if !seen[s.Key()] {
			seen[s.Key()] = true
			pool = append(pool, s)
		}
	}
	return pool
}

// boxSweep is a four-tier homogeneous sweep with per tiers replica values
// per tier, each tier's range starting at a seeded offset in 1..3.
func boxSweep(rng *rand.Rand, per int) redpatch.SpecSweepRequest {
	req := redpatch.SpecSweepRequest{}
	for _, role := range classicRoles {
		lo := 1 + rng.Intn(3)
		req.Tiers = append(req.Tiers, redpatch.TierSweep{Role: role, Min: lo, Max: lo + per - 1})
	}
	return req
}

// policy is one scenario configuration in the daemon's wire shape.
type policy struct {
	CriticalThreshold float64 `json:"criticalThreshold,omitempty"`
	PatchAll          bool    `json:"patchAll,omitempty"`
	IntervalHours     float64 `json:"intervalHours,omitempty"`
}

func (p policy) config() redpatch.Config {
	return redpatch.Config{CriticalThreshold: p.CriticalThreshold, PatchAll: p.PatchAll, PatchIntervalHours: p.IntervalHours}
}

// coldCycle is one policy-cold operation's inputs.
type coldCycle struct {
	policy   policy
	sweep    redpatch.SpecSweepRequest
	designs  []redpatch.DesignSpec
	schedule []redpatch.RolloutSchedule
}

func drawPolicy(rng *rand.Rand) policy {
	switch rng.Intn(3) {
	case 0:
		return policy{CriticalThreshold: []float64{5, 6, 7, 7.5, 9}[rng.Intn(5)]}
	case 1:
		return policy{PatchAll: true}
	default:
		return policy{IntervalHours: []float64{168, 336, 1440}[rng.Intn(3)]}
	}
}

func drawSchedule(rng *rand.Rand) redpatch.RolloutSchedule {
	switch rng.Intn(3) {
	case 0:
		return redpatch.RolloutSchedule{Strategy: "rolling", Steps: 6}
	case 1:
		return redpatch.RolloutSchedule{Strategy: "canary", Steps: 5}
	default:
		return redpatch.RolloutSchedule{Strategy: "blue-green"}
	}
}

// drawCycle builds one policy-cold cycle: a fresh policy, a 625-design
// space, and rolloutDesign designs of that space with their schedules.
func drawCycle(rng *rand.Rand) coldCycle {
	c := coldCycle{policy: drawPolicy(rng), sweep: boxSweep(rng, coldPerTier)}
	for i := 0; i < rolloutDesign; i++ {
		var d redpatch.DesignSpec
		for _, t := range c.sweep.Tiers {
			d.Tiers = append(d.Tiers, redpatch.TierSpec{Role: t.Role, Replicas: t.Min + rng.Intn(t.Max-t.Min+1)})
		}
		c.designs = append(c.designs, d)
		c.schedule = append(c.schedule, drawSchedule(rng))
	}
	return c
}

// fleetRegistry draws fleetSystems classic four-tier systems with 1 to 3
// replicas per tier (81 shapes), a campaign role, priority, window and
// compliance deadline each.
func fleetRegistry(rng *rand.Rand) []fleet.System {
	out := make([]fleet.System, fleetSystems)
	for i := range out {
		tiers := make([]fleet.TierSpec, len(classicRoles))
		for j, role := range classicRoles {
			tiers[j] = fleet.TierSpec{Role: role, Replicas: 1 + rng.Intn(3)}
		}
		out[i] = fleet.System{
			ID:            fmt.Sprintf("sys-%04d", i),
			Tiers:         tiers,
			Role:          classicRoles[rng.Intn(len(classicRoles))],
			Priority:      []float64{1, 1.2, 1.5, 2}[rng.Intn(4)],
			WindowMinutes: []float64{30, 60, 120}[rng.Intn(3)],
			DeadlineHours: []float64{0, 720, 1440, 2160}[rng.Intn(4)],
		}
	}
	return out
}

// maxConcurrentChoices are the fleet-plan per-request concurrency caps.
// Plan time falls with the cap (about 65, 48 and 31 ms in process), so an
// odd count keeps the median latency inside the middle cap's mode.
var maxConcurrentChoices = []int{4, 8, 16}

// capOrder is the fleet-plan sequence of caps: blocks that are each a
// seeded permutation of maxConcurrentChoices, so every run plans each cap
// equally often.
func capOrder(rng *rand.Rand, blocks int) []int {
	var out []int
	for i := 0; i < blocks; i++ {
		for _, j := range rng.Perm(len(maxConcurrentChoices)) {
			out = append(out, maxConcurrentChoices[j])
		}
	}
	return out
}
