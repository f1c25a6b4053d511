package redundancy

import (
	"context"
	"fmt"
	"math"
	"slices"

	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/trace"
)

// This file evaluates designs mid-rollout: a rollout point assigns each
// tier group a patched fraction, splitting its replica class into a
// patched and an unpatched sub-class. Security evaluates on the
// sub-classed quotient (paperdata.SpecRolloutQuotient +
// harm.BuildFactoredRollout), availability on mixed-version tier
// factors (availability.SolveTierFactorRollout) — both still factored,
// so sweeping a whole rollout schedule costs microseconds per point.
// The f=0 and f=1 endpoints reproduce the atomic Result's Before and
// After sides bit for bit (TestRolloutDegenerateEndpoints).

// Rollout strategy names for RolloutSchedule.Strategy.
const (
	// RolloutCustom evaluates the explicit Fractions sequence.
	RolloutCustom = "custom"
	// RolloutOneShot jumps every tier from 0 to 1 in one step.
	RolloutOneShot = "one-shot"
	// RolloutRolling ramps every tier uniformly over Steps equal waves.
	RolloutRolling = "rolling"
	// RolloutBlueGreen flips whole tiers to 1 one at a time, in Order.
	RolloutBlueGreen = "blue-green"
	// RolloutCanary patches a CanaryFraction first wave, then ramps the
	// remainder over Steps waves.
	RolloutCanary = "canary"
)

// RolloutSchedule describes a rollout as a sequence of per-tier patched
// fractions — the planner vocabulary. One-shot, rolling-N, blue-green
// and canary-then-ramp are all special cases of a fraction sequence;
// Points expands whichever is selected. Every expansion starts at the
// unpatched point (all zeros) and ends fully patched (all ones), so a
// schedule's frontier always brackets both atomic endpoints. The JSON
// tags are the redpatchd v2 wire shape.
type RolloutSchedule struct {
	// Strategy selects the expansion: RolloutCustom (or empty),
	// "one-shot", "rolling", "blue-green" or "canary".
	Strategy string `json:"strategy,omitempty"`
	// Steps is the wave count for rolling and canary ramps (default 4).
	Steps int `json:"steps,omitempty"`
	// CanaryFraction is the canary first-wave fraction (default 0.1).
	CanaryFraction float64 `json:"canaryFraction,omitempty"`
	// Order is the blue-green tier flip order, a permutation of the
	// spec's tier indices (default: spec order).
	Order []int `json:"order,omitempty"`
	// Fractions is the explicit point sequence for RolloutCustom, one
	// per-tier fraction vector per point.
	Fractions [][]float64 `json:"fractions,omitempty"`
}

// Points expands the schedule into per-tier fraction vectors for a
// design with the given tier count.
func (s RolloutSchedule) Points(tiers int) ([][]float64, error) {
	if tiers < 1 {
		return nil, fmt.Errorf("redundancy: rollout schedule needs at least one tier")
	}
	uniform := func(f float64) []float64 {
		out := make([]float64, tiers)
		for i := range out {
			out[i] = f
		}
		return out
	}
	steps := s.Steps
	if steps <= 0 {
		steps = 4
	}
	switch s.Strategy {
	case "", RolloutCustom:
		if len(s.Fractions) == 0 {
			return nil, fmt.Errorf("redundancy: custom rollout schedule has no fraction points")
		}
		out := make([][]float64, len(s.Fractions))
		for i, p := range s.Fractions {
			if len(p) != tiers {
				return nil, fmt.Errorf("redundancy: rollout point %d has %d fractions for %d tiers", i, len(p), tiers)
			}
			for j, f := range p {
				if math.IsNaN(f) || f < 0 || f > 1 {
					return nil, fmt.Errorf("redundancy: rollout point %d tier %d fraction %v outside [0,1]", i, j, f)
				}
			}
			out[i] = append([]float64(nil), p...)
		}
		return out, nil
	case RolloutOneShot:
		return [][]float64{uniform(0), uniform(1)}, nil
	case RolloutRolling:
		out := make([][]float64, steps+1)
		for i := 0; i <= steps; i++ {
			out[i] = uniform(float64(i) / float64(steps))
		}
		out[steps] = uniform(1) // exact endpoint regardless of division
		return out, nil
	case RolloutBlueGreen:
		order := s.Order
		if len(order) == 0 {
			order = make([]int, tiers)
			for i := range order {
				order[i] = i
			}
		}
		seen := make([]bool, tiers)
		for _, t := range order {
			if t < 0 || t >= tiers || seen[t] {
				return nil, fmt.Errorf("redundancy: blue-green order %v is not a permutation of %d tiers", order, tiers)
			}
			seen[t] = true
		}
		if len(order) != tiers {
			return nil, fmt.Errorf("redundancy: blue-green order %v is not a permutation of %d tiers", order, tiers)
		}
		out := [][]float64{uniform(0)}
		cur := uniform(0)
		for _, t := range order {
			cur = append([]float64(nil), cur...)
			cur[t] = 1
			out = append(out, cur)
		}
		return out, nil
	case RolloutCanary:
		c := s.CanaryFraction
		if c == 0 {
			c = 0.1
		}
		if math.IsNaN(c) || c <= 0 || c >= 1 {
			return nil, fmt.Errorf("redundancy: canary fraction %v outside (0,1)", c)
		}
		out := [][]float64{uniform(0), uniform(c)}
		for i := 1; i <= steps; i++ {
			f := c + (1-c)*float64(i)/float64(steps)
			if i == steps || f > 1 {
				f = 1 // exact endpoint regardless of rounding
			}
			out = append(out, uniform(f))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("redundancy: unknown rollout strategy %q", s.Strategy)
	}
}

// PatchedCounts converts per-tier rollout fractions into per-tier
// patched replica counts, one per spec.Tiers entry: ceil(f*n), so any
// non-zero fraction patches at least one replica and fraction 1 patches
// all of them.
func PatchedCounts(spec paperdata.DesignSpec, fractions []float64) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return patchedCounts(spec, fractions)
}

// patchedCounts is PatchedCounts for a spec already validated.
func patchedCounts(spec paperdata.DesignSpec, fractions []float64) ([]int, error) {
	if len(fractions) != len(spec.Tiers) {
		return nil, fmt.Errorf("redundancy: %d rollout fractions for %d tiers", len(fractions), len(spec.Tiers))
	}
	out := make([]int, len(fractions))
	for i, f := range fractions {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return nil, fmt.Errorf("redundancy: tier %d rollout fraction %v outside [0,1]", i, f)
		}
		p := int(math.Ceil(f * float64(spec.Tiers[i].Replicas)))
		if p > spec.Tiers[i].Replicas {
			p = spec.Tiers[i].Replicas
		}
		out[i] = p
	}
	return out, nil
}

// RolloutResult is the evaluation of one design at one rollout point.
type RolloutResult struct {
	// Spec is the design the point was evaluated for.
	Spec paperdata.DesignSpec
	// Fractions are the per-tier rollout fractions of the point.
	Fractions []float64
	// Patched are the per-tier patched replica counts (ceil(f*n)).
	Patched []int
	// Security holds the mixed-version security metrics: patched
	// replicas contribute their post-patch attack trees, unpatched ones
	// their pre-patch trees.
	Security harm.Metrics
	// COA is the capacity oriented availability mid-rollout: only the
	// patched sub-populations cycle through patch windows.
	COA float64
	// ServiceAvailability is P(at least one server up in every tier).
	ServiceAvailability float64
}

// rolloutModelFor returns the memoized mixed-version security model of
// a rollout quotient structure, building it on first use. Like the
// atomic security memo, the build runs under the mutex and only a miss
// opens a "security.evaluate" span.
func (e *Evaluator) rolloutModelFor(ctx context.Context, rq paperdata.RolloutQuotient) (*harm.FactoredHARM, bool, error) {
	k := securityKey{structure: rq.Structure, policy: e.fingerprint}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.rollout[k]; ok {
		e.rolloutModelHits.Add(1)
		return m, true, nil
	}
	_, sp := trace.Start(ctx, "security.evaluate",
		trace.Attr{Key: "solver", Value: "rollout-quotient"},
		trace.Attr{Key: "memo", Value: "miss"})
	top, err := paperdata.SpecTopology(rq.Quotient)
	var m *harm.FactoredHARM
	if err == nil {
		m, err = harm.BuildFactoredRollout(harm.BuildInput{
			Topology:    top,
			Trees:       e.trees,
			TargetRoles: rq.Quotient.TargetStacks(),
		}, rq.PatchedHosts, e.keepLeaf)
	}
	sp.EndErr(err)
	if err != nil {
		return nil, false, err
	}
	e.rolloutModels.Add(1)
	e.rollout[k] = m
	return m, false, nil
}

// compiledRollout binds a tier signature at one per-class patch state
// pattern to its mixed-version security model: spec tier i's unpatched
// and patched replicas join the model's classes sub[i][0] and sub[i][1]
// (indices into its Classes() order, -1 where the tier's class has no
// such sub-class).
type compiledRollout struct {
	model   *harm.FactoredHARM
	sub     [][2]int
	classes int
}

// rolloutFor returns the rollout security half of a compiled structure
// at the patch state pattern of patched, binding it on first use. The
// pattern — each class unpatched, patched or mixed — together with the
// tier signature determines the rollout quotient, so specs of one
// signature share the binding whatever their replica and patched
// counts. Every call counts exactly one rollout model hit or build, so
// RolloutModels stays the number of distinct rollout structures: a
// bound pattern is a hit, and binding one runs SpecRolloutQuotient and
// rolloutModelFor, which counts for itself.
func (e *Evaluator) rolloutFor(ctx context.Context, c *compiledSpec, spec paperdata.DesignSpec, patched []int) (*compiledRollout, bool, error) {
	total := make([]int, 2*c.classes)
	done := total[c.classes:]
	for i, t := range spec.Tiers {
		total[c.class[i]] += t.Replicas
		done[c.class[i]] += patched[i]
	}
	var buf [32]byte
	pattern := buf[:0]
	for k, d := range done {
		switch d {
		case 0:
			pattern = append(pattern, 'u')
		case total[k]:
			pattern = append(pattern, 'p')
		default:
			pattern = append(pattern, 'm')
		}
	}
	e.mu.Lock()
	ro, ok := c.rollouts[string(pattern)]
	e.mu.Unlock()
	if ok {
		e.rolloutModelHits.Add(1)
		return ro, true, nil
	}
	rq, err := paperdata.SpecRolloutQuotient(spec, patched)
	if err != nil {
		return nil, false, err
	}
	model, hit, err := e.rolloutModelFor(ctx, rq)
	if err != nil {
		return nil, false, err
	}
	classes := model.Classes()
	ro = &compiledRollout{model: model, sub: make([][2]int, len(spec.Tiers)), classes: len(classes)}
	for i, hosts := range rq.TierHosts {
		for state, host := range hosts {
			ro.sub[i][state] = -1
			if host == "" {
				continue
			}
			if ro.sub[i][state] = slices.Index(classes, host); ro.sub[i][state] < 0 {
				return nil, false, fmt.Errorf("redundancy: rollout class %q missing from the security model", host)
			}
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := c.rollouts[string(pattern)]; ok {
		return prev, hit, nil
	}
	c.rollouts[string(pattern)] = ro
	return ro, hit, nil
}

// tierFactorRollout returns the mixed-version tier factor, memoized
// under the same map as the atomic factors: the fully-patched case is
// literally the atomic entry, partial patches get their own
// (stack, n, patched) entries.
func (e *Evaluator) tierFactorRollout(ctx context.Context, stack string, tier availability.Tier, patched int) (availability.TierFactor, bool, error) {
	if patched == tier.N {
		return e.tierFactorFor(ctx, stack, tier)
	}
	k := factorKey{stack: stack, n: tier.N, patched: patched}
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.factors[k]; ok {
		e.tierFactorHits.Add(1)
		return f, true, nil
	}
	f, err := availability.SolveTierFactorRolloutCtx(ctx, tier, patched)
	if err != nil {
		return availability.TierFactor{}, false, err
	}
	e.tierSolves.Add(1)
	e.factors[k] = f
	return f, false, nil
}

// EvaluateRollout evaluates one design at one rollout point given by
// per-tier patched fractions (aligned with spec.Tiers). Both axes run
// factored: security on the sub-classed rollout quotient with the
// mixed-version model memoized (and compiled) per rollout structure,
// availability by composing mixed-version tier factors memoized per
// (stack, n, patched) on the spec's compiled network layout — the one
// the atomic path uses.
// The context carries tracing only; provenance lands as attributes on
// the caller's span exactly like the atomic path.
func (e *Evaluator) EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (RolloutResult, error) {
	if err := spec.Validate(); err != nil {
		return RolloutResult{}, err
	}
	patched, err := patchedCounts(spec, fractions)
	if err != nil {
		return RolloutResult{}, err
	}
	c, err := e.structureFor(spec)
	if err != nil {
		return RolloutResult{}, err
	}
	ro, hit, err := e.rolloutFor(ctx, c, spec, patched)
	if err != nil {
		return RolloutResult{}, err
	}
	parent := trace.FromContext(ctx)
	parent.SetAttr("security_solver", "rollout-quotient")
	if hit {
		parent.SetAttr("security_memo", "hit")
	} else {
		parent.SetAttr("security_memo", "miss")
	}
	e.rolloutEvals.Add(1)
	res := RolloutResult{
		Spec:      spec,
		Fractions: append([]float64(nil), fractions...),
		Patched:   patched,
	}
	mult := make([]int, ro.classes)
	for i, t := range spec.Tiers {
		if n := t.Replicas - patched[i]; n > 0 {
			mult[ro.sub[i][0]] += n
		}
		if patched[i] > 0 {
			mult[ro.sub[i][1]] += patched[i]
		}
	}
	if res.Security, err = ro.model.EvaluateVector(mult, e.evalOpts); err != nil {
		return RolloutResult{}, err
	}

	// The layout's tiers follow spec.Logical() order; patched follows
	// spec.Tiers order, and order maps between them.
	nl := &c.net
	factors := make([]availability.TierFactor, len(nl.tiers))
	for i, t := range nl.tiers {
		t.N = spec.Tiers[nl.order[i]].Replicas
		f, _, err := e.tierFactorRollout(ctx, nl.stacks[i], t, patched[nl.order[i]])
		if err != nil {
			return RolloutResult{}, err
		}
		factors[i] = f
	}
	parent.SetAttr("availability_solver", "factored")
	e.factoredSolves.Add(1)
	res.COA, res.ServiceAvailability = nl.layout.Compose(factors)
	return res, nil
}
