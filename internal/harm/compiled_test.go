package harm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"redpatch/internal/attackgraph"
	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
)

// uncompiledEvaluate is the factored evaluation as it ran before the
// model was compiled: tree metrics, path enumeration and the exact-ASP
// bitmasks rebuilt on every call. It is the bit-identity oracle for the
// compiled form.
func uncompiledEvaluate(f *FactoredHARM, mult map[string]int, opts EvalOptions) (Metrics, error) {
	h := f.h
	opts = opts.withDefaults()
	multOf := func(class string) int {
		if n, ok := mult[class]; ok {
			return n
		}
		return 1
	}
	byTree := metricsByTree(h.lower, opts.ORRule)
	var m Metrics
	for class, tr := range h.lower {
		m.NoEV += multOf(class) * byTree[tr].leaves
	}
	if len(h.targets) == 0 {
		return m, nil
	}
	paths, err := h.upper.AllPaths(h.attacker, h.targets, attackgraph.AllPathsOptions{MaxPaths: opts.MaxPaths})
	if err != nil {
		return Metrics{}, fmt.Errorf("harm: %w", err)
	}
	m.Paths = make([]PathMetric, len(paths))
	entries := make(map[string]bool)
	for i, p := range paths {
		pm := PathMetric{Path: p, Prob: 1, Count: 1}
		for _, class := range p[1:] {
			tm := byTree[h.lower[class]]
			pm.Impact += tm.impact
			pm.Prob *= tm.prob
			pm.Count *= multOf(class)
		}
		m.Paths[i] = pm
		m.NoAP += pm.Count
		if len(p) >= 2 && !entries[p[1]] {
			entries[p[1]] = true
			m.NoEP += multOf(p[1])
		}
		if pm.Impact > m.AIM {
			m.AIM = pm.Impact
		}
		if hops := len(p) - 1; m.ShortestPath == 0 || hops < m.ShortestPath {
			m.ShortestPath = hops
		}
	}
	switch opts.Strategy {
	case ASPMaxPath:
		for _, pm := range m.Paths {
			if pm.Prob > m.ASP {
				m.ASP = pm.Prob
			}
		}
	case ASPIndependentPaths:
		q := 1.0
		for _, pm := range m.Paths {
			q *= intPow(1-pm.Prob, pm.Count)
		}
		m.ASP = mathx.Clamp01(1 - q)
	case ASPCompromise:
		eff := make(map[string]float64, len(h.lower))
		for class, tr := range h.lower {
			eff[class] = mathx.Clamp01(1 - intPow(1-byTree[tr].prob, multOf(class)))
		}
		asp, err := compromiseProbability(paths, eff, opts.MaxPathsExact)
		if err != nil {
			return Metrics{}, err
		}
		m.ASP = asp
	default:
		return Metrics{}, fmt.Errorf("harm: unknown ASP strategy %d", opts.Strategy)
	}
	return m, nil
}

// TestCompiledMatchesUncompiled: on random layered quotients, under
// every ASP strategy and OR rule and for several multiplicity draws per
// model — so the compiled form is reused and, as the option pairs
// alternate, recompiled — Evaluate and EvaluateVector must equal the
// uncompiled evaluation exactly, field by field, paths included.
func TestCompiledMatchesUncompiled(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := drawQuotient(rng)
		f, err := BuildFactored(BuildInput{Topology: q.top, Trees: q.trees, TargetRoles: q.targets})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		classes := f.Classes()
		for draw := 0; draw < 3; draw++ {
			mult := make(map[string]int, len(classes))
			vec := make([]int, len(classes))
			for i, c := range classes {
				vec[i] = 1 + rng.Intn(6)
				mult[c] = vec[i]
			}
			for _, strat := range []ASPStrategy{ASPMaxPath, ASPIndependentPaths, ASPCompromise} {
				for _, rule := range []attacktree.ORRule{attacktree.ORMax, attacktree.ORNoisy} {
					opts := EvalOptions{Strategy: strat, ORRule: rule}
					want, err := uncompiledEvaluate(f, mult, opts)
					if err != nil {
						t.Fatalf("seed %d: uncompiled: %v", seed, err)
					}
					got, err := f.Evaluate(mult, opts)
					if err != nil {
						t.Fatalf("seed %d: Evaluate: %v", seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d draw %d strat %d rule %d: Evaluate\n got %+v\nwant %+v", seed, draw, strat, rule, got, want)
					}
					got, err = f.EvaluateVector(vec, opts)
					if err != nil {
						t.Fatalf("seed %d: EvaluateVector: %v", seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d draw %d strat %d rule %d: EvaluateVector\n got %+v\nwant %+v", seed, draw, strat, rule, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledPathsDoNotAlias: a caller that rewrites the paths of one
// result must not change the next evaluation — each result owns its
// paths.
func TestCompiledPathsDoNotAlias(t *testing.T) {
	f, err := BuildFactored(BuildInput{
		Topology:    quotientPaperTopology(t),
		Trees:       paperTrees(),
		TargetRoles: []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mult := map[string]int{"web": 2, "app": 2}
	first, err := f.Evaluate(mult, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncompiledEvaluate(f, mult, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Paths {
		for j := range first.Paths[i].Path {
			first.Paths[i].Path[j] = "tampered"
		}
		first.Paths[i].Path = append(first.Paths[i].Path, "extra")
		first.Paths[i].Count = -1
	}
	again, err := f.Evaluate(mult, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("evaluation after tampering\n got %+v\nwant %+v", again, want)
	}
}

// TestEvaluateVectorValidation covers the vector form's error paths.
func TestEvaluateVectorValidation(t *testing.T) {
	f, err := BuildFactored(BuildInput{
		Topology:    quotientPaperTopology(t),
		Trees:       paperTrees(),
		TargetRoles: []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.EvaluateVector([]int{1, 1, 1}, EvalOptions{}); err == nil {
		t.Error("a vector shorter than Classes() should fail")
	}
	if _, err := f.EvaluateVector([]int{1, 0, 1, 1}, EvalOptions{}); err == nil {
		t.Error("zero multiplicity should fail")
	}
	if _, err := f.EvaluateVector([]int{1, 1, 1, 1}, EvalOptions{Strategy: ASPStrategy(99)}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

// TestCompiledConcurrentUse: goroutines evaluating one fresh model at
// once — some under one OR rule, some under the other, so the compiled
// form is published and replaced while others read it — must each get
// the uncompiled answer for their own options.
func TestCompiledConcurrentUse(t *testing.T) {
	q := drawQuotient(rand.New(rand.NewSource(3)))
	f, err := BuildFactored(BuildInput{Topology: q.top, Trees: q.trees, TargetRoles: q.targets})
	if err != nil {
		t.Fatal(err)
	}
	rules := []attacktree.ORRule{attacktree.ORMax, attacktree.ORNoisy}
	want := make([]Metrics, len(rules))
	for i, rule := range rules {
		if want[i], err = uncompiledEvaluate(f, q.mult, EvalOptions{ORRule: rule}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				r := (g + i) % len(rules)
				got, err := f.Evaluate(q.mult, EvalOptions{ORRule: rules[r]})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[r]) {
					t.Errorf("goroutine %d call %d: result differs from uncompiled", g, i)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
