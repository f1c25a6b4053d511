package redundancy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
)

// drawSpec draws a random valid spec: 1-6 tiers over the paper's roles,
// roles repeating (so logical tiers gain groups, adjacent or not),
// variant stacks on about a third of the tiers, and 1-6 replicas each.
func drawSpec(rng *rand.Rand, name string) paperdata.DesignSpec {
	roles := paperdata.Roles()
	stacks := append(paperdata.Roles(), paperdata.RoleWebAlt)
	spec := paperdata.DesignSpec{Name: name}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		t := paperdata.TierSpec{Role: roles[rng.Intn(len(roles))], Replicas: 1 + rng.Intn(6)}
		if rng.Intn(3) == 0 {
			t.Variant = stacks[rng.Intn(len(stacks))]
		}
		spec.Tiers = append(spec.Tiers, t)
	}
	return spec
}

// drawFractions draws per-tier rollout fractions, endpoints included.
func drawFractions(rng *rand.Rand, tiers int) []float64 {
	out := make([]float64, tiers)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = rng.Float64()
		}
	}
	return out
}

// logicalPatched reorders per-spec-tier patched counts into the logical
// order of NetworkModelFor's tiers.
func logicalPatched(spec paperdata.DesignSpec, patched []int) []int {
	var out []int
	for _, idxs := range spec.LogicalIndices() {
		for _, i := range idxs {
			out = append(out, patched[i])
		}
	}
	return out
}

// oracleTotal bounds the specs checked against the expanded oracle: its
// exact ASP enumerates host subsets of the expanded model.
const oracleTotal = 10

// TestCompiledSpecProperty: over seeded random specs, under every ASP
// strategy, both OR rules and both patch policies, the compiled
// evaluation must equal the map-keyed SpecQuotient + Evaluate path
// exactly (paths included), match the expanded HARM oracle within the
// equivalence tolerance, and compose availability to the bit of the
// ComposeNetwork path; rollout points must equal the map-keyed
// SpecRolloutQuotient + Evaluate path exactly as well.
func TestCompiledSpecProperty(t *testing.T) {
	ctx := context.Background()
	oracled := 0
	for _, strat := range []harm.ASPStrategy{harm.ASPMaxPath, harm.ASPIndependentPaths, harm.ASPCompromise} {
		for _, rule := range []attacktree.ORRule{attacktree.ORMax, attacktree.ORNoisy} {
			for _, pol := range []patch.Policy{patch.CriticalPolicy(), {PatchAll: true}} {
				opts := harm.EvalOptions{Strategy: strat, ORRule: rule}
				ev, err := NewEvaluator(Options{Eval: &opts, Policy: &pol})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(strat)*100 + int64(rule)*10))
				for i := 0; i < 40; i++ {
					spec := drawSpec(rng, fmt.Sprintf("s%d", i))
					label := fmt.Sprintf("strat %d rule %d patchAll %v %s", strat, rule, pol.PatchAll, spec.Key())

					res, err := ev.EvaluateSpec(spec)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					quotient, mult, _, err := paperdata.SpecQuotient(spec)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := ev.buildSecurityFactor(quotient)
					if err != nil {
						t.Fatal(err)
					}
					wantBefore, err := ref.before.Evaluate(mult, ev.evalOpts)
					if err != nil {
						t.Fatal(err)
					}
					wantAfter, err := ref.after.Evaluate(mult, ev.evalOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Before, wantBefore) {
						t.Fatalf("%s: before\n got %+v\nwant %+v", label, res.Before, wantBefore)
					}
					if !reflect.DeepEqual(res.After, wantAfter) {
						t.Fatalf("%s: after\n got %+v\nwant %+v", label, res.After, wantAfter)
					}

					nm, err := ev.NetworkModelFor(spec)
					if err != nil {
						t.Fatal(err)
					}
					sol, err := availability.SolveNetworkFactored(nm)
					if err != nil {
						t.Fatal(err)
					}
					if res.COA != sol.COA || res.ServiceAvailability != sol.ServiceAvailability {
						t.Fatalf("%s: COA/SA %v/%v != ComposeNetwork %v/%v", label,
							res.COA, res.ServiceAvailability, sol.COA, sol.ServiceAvailability)
					}

					if spec.Total() <= oracleTotal {
						oracled++
						expBefore, expAfter, err := ev.securityExpanded(ctx, spec)
						if err != nil {
							t.Fatalf("%s: expanded: %v", label, err)
						}
						assertMetricsEqual(t, label+"/before", res.Before, expBefore)
						assertMetricsEqual(t, label+"/after", res.After, expAfter)
					}

					fr := drawFractions(rng, len(spec.Tiers))
					ro, err := ev.EvaluateRollout(ctx, spec, fr)
					if err != nil {
						t.Fatalf("%s: rollout: %v", label, err)
					}
					rq, err := paperdata.SpecRolloutQuotient(spec, ro.Patched)
					if err != nil {
						t.Fatal(err)
					}
					model, _, err := ev.rolloutModelFor(ctx, rq)
					if err != nil {
						t.Fatal(err)
					}
					wantRollout, err := model.Evaluate(rq.Mult, ev.evalOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ro.Security, wantRollout) {
						t.Fatalf("%s: rollout %v\n got %+v\nwant %+v", label, ro.Patched, ro.Security, wantRollout)
					}
					rsol, err := availability.SolveNetworkRollout(nm, logicalPatched(spec, ro.Patched))
					if err != nil {
						t.Fatal(err)
					}
					if ro.COA != rsol.COA || ro.ServiceAvailability != rsol.ServiceAvailability {
						t.Fatalf("%s: rollout COA/SA %v/%v != %v/%v", label,
							ro.COA, ro.ServiceAvailability, rsol.COA, rsol.ServiceAvailability)
					}
				}
			}
		}
	}
	if oracled < 100 {
		t.Errorf("only %d specs checked against the expanded oracle, want at least 100", oracled)
	}
}

// TestCompiledResultsDoNotAlias: rewriting the attack paths of one
// result must not leak into the next evaluation of the same structure.
func TestCompiledResultsDoNotAlias(t *testing.T) {
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.BaseDesign().Spec()
	first, err := ev.EvaluateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EvaluateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*harm.Metrics{&first.Before, &first.After} {
		for i := range m.Paths {
			for j := range m.Paths[i].Path {
				m.Paths[i].Path[j] = "tampered"
			}
			m.Paths[i].Count = -1
		}
	}
	again, err := ev.EvaluateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("evaluation after tampering\n got %+v\nwant %+v", again, want)
	}
}

// TestCompiledStructureConcurrentFirstUse: goroutines racing to make
// the first evaluations of one new structure — at different replica
// counts — on a fresh evaluator must each get the serial answer, and
// the structure's security model must be built once. The same holds
// for the first rollout evaluations of one patch-state pattern.
func TestCompiledStructureConcurrentFirstUse(t *testing.T) {
	base := paperdata.DesignSpec{Tiers: []paperdata.TierSpec{
		{Role: paperdata.RoleDNS, Replicas: 1},
		{Role: paperdata.RoleWeb, Replicas: 2},
		{Role: paperdata.RoleWeb, Replicas: 1, Variant: paperdata.RoleWebAlt},
		{Role: paperdata.RoleApp, Replicas: 2},
		{Role: paperdata.RoleDB, Replicas: 1},
	}}
	const n = 8
	specs := make([]paperdata.DesignSpec, n)
	for i := range specs {
		specs[i] = paperdata.DesignSpec{Name: fmt.Sprintf("c%d", i)}
		for _, tier := range base.Tiers {
			tier.Replicas += i % 3
			specs[i].Tiers = append(specs[i].Tiers, tier)
		}
	}
	fractions := []float64{0, 0.5, 1, 0.5, 0}

	serial, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, n)
	wantRollout := make([]RolloutResult, n)
	for i, spec := range specs {
		if want[i], err = serial.EvaluateSpec(spec); err != nil {
			t.Fatal(err)
		}
		if wantRollout[i], err = serial.EvaluateRollout(context.Background(), spec, fractions); err != nil {
			t.Fatal(err)
		}
	}

	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, n)
	gotRollout := make([]RolloutResult, n)
	errs := make([]error, 2*n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = ev.EvaluateSpec(specs[i])
		}(i)
		go func(i int) {
			defer wg.Done()
			<-start
			gotRollout[i], errs[n+i] = ev.EvaluateRollout(context.Background(), specs[i], fractions)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range specs {
		if errs[i] != nil || errs[n+i] != nil {
			t.Fatalf("spec %d: %v / %v", i, errs[i], errs[n+i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("spec %d: concurrent result differs from serial", i)
		}
		if !reflect.DeepEqual(gotRollout[i], wantRollout[i]) {
			t.Errorf("spec %d: concurrent rollout result differs from serial", i)
		}
	}
	st := ev.SolverStats()
	if st.SecuritySolves != 1 || st.SecurityFactorHits != n-1 || st.SecurityFactored != n {
		t.Errorf("security solves/hits/factored = %d/%d/%d, want 1/%d/%d",
			st.SecuritySolves, st.SecurityFactorHits, st.SecurityFactored, n-1, n)
	}
	if st.RolloutModels != 1 || st.RolloutModelHits != n-1 {
		t.Errorf("rollout models/hits = %d/%d, want 1/%d", st.RolloutModels, st.RolloutModelHits, n-1)
	}
	ev.mu.Lock()
	structures := len(ev.structures)
	ev.mu.Unlock()
	if structures != 1 {
		t.Errorf("%d compiled structures, want 1", structures)
	}
}

// TestCompiledStructuresPerEvaluator: evaluators under different
// policies, driven concurrently over the same specs, must compile
// their own structures — no compiled structure, security model or
// rollout model is shared — and each must answer as a serial evaluator
// of its own policy does.
func TestCompiledStructuresPerEvaluator(t *testing.T) {
	critical := patch.CriticalPolicy()
	all := patch.Policy{PatchAll: true}
	policies := []patch.Policy{critical, all}
	rng := rand.New(rand.NewSource(7))
	specs := make([]paperdata.DesignSpec, 24)
	for i := range specs {
		specs[i] = drawSpec(rng, fmt.Sprintf("p%d", i))
	}
	fractions := make([][]float64, len(specs))
	for i, spec := range specs {
		fractions[i] = drawFractions(rng, len(spec.Tiers))
	}

	evs := make([]*Evaluator, len(policies))
	got := make([][]Result, len(policies))
	gotRollout := make([][]RolloutResult, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for p := range policies {
		var err error
		if evs[p], err = NewEvaluator(Options{Policy: &policies[p]}); err != nil {
			t.Fatal(err)
		}
		got[p] = make([]Result, len(specs))
		gotRollout[p] = make([]RolloutResult, len(specs))
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, spec := range specs {
				var err error
				if got[p][i], err = evs[p].EvaluateSpec(spec); err != nil {
					errs[p] = err
					return
				}
				if gotRollout[p][i], err = evs[p].EvaluateRollout(context.Background(), spec, fractions[i]); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p := range policies {
		if errs[p] != nil {
			t.Fatal(errs[p])
		}
		serial, err := NewEvaluator(Options{Policy: &policies[p]})
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			want, err := serial.EvaluateSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[p][i], want) {
				t.Errorf("policy %d spec %s: result differs from serial", p, spec.Key())
			}
			wantRollout, err := serial.EvaluateRollout(context.Background(), spec, fractions[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRollout[p][i], wantRollout) {
				t.Errorf("policy %d spec %s: rollout differs from serial", p, spec.Key())
			}
		}
	}

	for i, spec := range specs {
		if got[1][i].After.NoEV != 0 {
			t.Errorf("patch-all %s: after NoEV %d, want 0", spec.Key(), got[1][i].After.NoEV)
		}
		sig := string(appendTierSignature(nil, spec))
		var cs [2]*compiledSpec
		for p, ev := range evs {
			ev.mu.Lock()
			cs[p] = ev.structures[sig]
			ev.mu.Unlock()
		}
		if cs[0] == nil || cs[1] == nil || cs[0] == cs[1] {
			t.Fatalf("%s: compiled structures %p / %p, want two distinct", spec.Key(), cs[0], cs[1])
		}
		if a, b := cs[0].sec.Load(), cs[1].sec.Load(); a.factor == b.factor ||
			a.factor.before == b.factor.before || a.factor.after == b.factor.after {
			t.Errorf("%s: security models shared across policies", spec.Key())
		}
		for pattern, a := range cs[0].rollouts {
			if b, ok := cs[1].rollouts[pattern]; ok && a.model == b.model {
				t.Errorf("%s: rollout model %s shared across policies", spec.Key(), pattern)
			}
		}
	}
}
