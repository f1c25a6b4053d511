package harm

import (
	"fmt"
	"sync/atomic"

	"redpatch/internal/attackgraph"
	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
)

// This file implements the factored (replica-symmetric) security
// evaluator. Redundant designs repeat identical hosts: every replica of a
// (role, stack) class runs the same attack tree and — because tiers
// connect all-to-all — has exactly the same reachability. The expanded
// HARM therefore carries no information the replica-collapsed quotient
// does not: its attack paths are the quotient's paths with one instance
// chosen per class, so path counts multiply by the class multiplicities
// and the exact compromise probability factors per class.
//
// Concretely, for a quotient path P over classes c with multiplicities
// n_c and per-instance compromise probabilities p_c:
//
//   - every expanded path along P has probability prod_{c in P} p_c and
//     there are prod_{c in P} n_c of them;
//   - "some expanded path along P is fully compromised" is exactly
//     "every class on P has at least one compromised instance", an event
//     of probability prod_{c in P} (1 - (1-p_c)^{n_c}) with the class
//     events independent across classes — any choice of compromised
//     instances forms a valid expanded path precisely because inter-tier
//     connectivity is all-to-all.
//
// So ASP under every strategy, AIM, NoAP, NoEP, NoEV and the shortest
// path all follow from the quotient in closed form. A replica-R design
// evaluates on a graph whose size is independent of R; the expanded
// evaluator (Evaluate) remains as the cross-validation oracle
// (TestFactoredSecurityEquivalence).

// FactoredHARM is the quotient security model: a HARM whose hosts are
// replica classes rather than host instances. Build it with
// BuildFactored over the replica-collapsed topology; evaluate it with
// per-class multiplicities. A FactoredHARM is immutable after
// construction and safe for concurrent Evaluate calls, so one model
// serves every replica vector of a design family.
//
// Everything about an evaluation that does not depend on the
// multiplicities — per-class tree metrics, the quotient attack paths,
// their impacts and probabilities, the entry classes and the exact-ASP
// path bitmasks — is compiled once, on the first evaluation, and reused
// by every later one; an evaluation is then multiplicity arithmetic
// over cached slices.
type FactoredHARM struct {
	h    *HARM
	form atomic.Pointer[factoredForm]
}

// factoredForm is the compiled, multiplicity-independent part of a
// factored evaluation under one OR rule and path cap. It is immutable
// once built. Class indices follow Classes().
type factoredForm struct {
	rule     attacktree.ORRule
	maxPaths int

	leaves []int     // exploitable vulnerabilities per class
	prob   []float64 // attack-tree success probability per class

	targets bool // false: no target class, so no path metrics
	// paths are the quotient attack paths in enumeration order; hops
	// holds each path's classes after the attacker, and nodes the total
	// node count, sizing the one backing array a result's paths share.
	// metrics carries each path's Impact and Prob; an evaluation copies
	// it and fills in Path and Count.
	paths    []attackgraph.Path
	hops     [][]int
	nodes    int
	metrics  []PathMetric
	aim      float64
	shortest int
	maxProb  float64 // ASPMaxPath: multiplicity-blind
	entries  []int   // distinct entry classes, first appearance order

	// ASPCompromise: the classes on any path in first-appearance order
	// (the bit order) and one bitmask per path over them. masks is nil
	// when more than 64 classes lie on paths.
	hostClass []int
	masks     []uint64
}

// BuildFactored constructs the factored model from a quotient topology:
// one host node per replica class, with the class's attack tree resolved
// through the usual role/instance template rules. The topology must
// satisfy the quotient premise — within a class all replicas are
// identical and identically connected — which holds by construction for
// topologies produced by replica-collapsing a tiered design
// (paperdata.SpecQuotient).
func BuildFactored(in BuildInput) (*FactoredHARM, error) {
	h, err := Build(in)
	if err != nil {
		return nil, err
	}
	return &FactoredHARM{h: h}, nil
}

// Patched returns the factored model after the patch transformation,
// mirroring HARM.Patched: classes whose pruned trees empty drop out of
// the quotient graph, exactly as their expanded replicas would. The
// class set (Classes) is unchanged.
func (f *FactoredHARM) Patched(keep func(role string, leaf *attacktree.Leaf) bool) (*FactoredHARM, error) {
	h, err := f.h.Patched(keep)
	if err != nil {
		return nil, err
	}
	return &FactoredHARM{h: h}, nil
}

// Quotient exposes the underlying quotient HARM (classes as hosts).
func (f *FactoredHARM) Quotient() *HARM { return f.h }

// Evaluate computes the full expanded-topology security metrics from the
// quotient in closed form. mult maps class host names to their replica
// counts; classes absent from the map count one replica. Metrics.Paths
// lists quotient paths with Count carrying each path's expanded
// multiplicity.
//
// The MaxPaths and MaxPathsExact caps apply to the quotient enumeration,
// so designs whose expanded path counts would blow past the expanded
// evaluator's limits stay exactly evaluable here — that is the point.
// Evaluate is EvaluateVector behind a map: the results are identical.
func (f *FactoredHARM) Evaluate(mult map[string]int, opts EvalOptions) (Metrics, error) {
	opts = opts.withDefaults()
	for class, n := range mult {
		if _, ok := f.h.lower[class]; !ok {
			return Metrics{}, fmt.Errorf("harm: multiplicity for unknown class %q", class)
		}
		if n < 1 {
			return Metrics{}, fmt.Errorf("harm: class %q multiplicity %d below 1", class, n)
		}
	}
	vec := make([]int, len(f.h.hosts))
	for i, class := range f.h.hosts {
		vec[i] = 1
		if n, ok := mult[class]; ok {
			vec[i] = n
		}
	}
	return f.evaluate(vec, opts)
}

// EvaluateVector is Evaluate with the multiplicities as a vector aligned
// with Classes(): mult[i] replicas of class Classes()[i]. Every entry
// must be at least one. It does only the multiplicity arithmetic over
// the compiled model, and returns paths that share no memory with it or
// with any other call's result.
func (f *FactoredHARM) EvaluateVector(mult []int, opts EvalOptions) (Metrics, error) {
	if len(mult) != len(f.h.hosts) {
		return Metrics{}, fmt.Errorf("harm: %d multiplicities for %d classes", len(mult), len(f.h.hosts))
	}
	for i, n := range mult {
		if n < 1 {
			return Metrics{}, fmt.Errorf("harm: class %q multiplicity %d below 1", f.h.hosts[i], n)
		}
	}
	return f.evaluate(mult, opts.withDefaults())
}

// compiled returns the model's compiled form for opts' OR rule and path
// cap, compiling it on first use. Only the latest option pair's form is
// kept: callers alternating between option pairs recompile, one path
// enumeration per call. Concurrent first calls may each compile; the
// forms are identical.
func (f *FactoredHARM) compiled(opts EvalOptions) (*factoredForm, error) {
	if c := f.form.Load(); c != nil && c.rule == opts.ORRule && c.maxPaths == opts.MaxPaths {
		return c, nil
	}
	c, err := compileFactored(f.h, opts.ORRule, opts.MaxPaths)
	if err != nil {
		return nil, err
	}
	f.form.Store(c)
	return c, nil
}

// compileFactored computes the multiplicity-independent part of a
// factored evaluation. The orders matter: path impacts and
// probabilities accumulate hop by hop, and classes take their exact-ASP
// bit in first-appearance order along the paths, as
// compromiseProbability numbers hosts, so compiled results equal the
// direct computation bit for bit (TestCompiledMatchesUncompiled).
func compileFactored(h *HARM, rule attacktree.ORRule, maxPaths int) (*factoredForm, error) {
	byTree := metricsByTree(h.lower, rule)
	c := &factoredForm{
		rule:     rule,
		maxPaths: maxPaths,
		leaves:   make([]int, len(h.hosts)),
		prob:     make([]float64, len(h.hosts)),
	}
	index := make(map[string]int, len(h.hosts))
	for i, class := range h.hosts {
		tm := byTree[h.lower[class]]
		c.leaves[i] = tm.leaves
		c.prob[i] = tm.prob
		index[class] = i
	}
	if len(h.targets) == 0 {
		return c, nil
	}
	paths, err := h.upper.AllPaths(h.attacker, h.targets, attackgraph.AllPathsOptions{MaxPaths: maxPaths})
	if err != nil {
		return nil, fmt.Errorf("harm: %w", err)
	}
	c.targets = true
	c.paths = paths
	for _, p := range paths {
		c.nodes += len(p)
	}
	c.hops = make([][]int, len(paths))
	hopBuf := make([]int, 0, c.nodes-len(paths)) // every path's hops, back to back
	c.metrics = make([]PathMetric, len(paths))
	entered := make([]bool, len(h.hosts))
	bit := make([]int, len(h.hosts)) // class -> its exact-ASP bit, -1 until it appears
	for i := range bit {
		bit[i] = -1
	}
	for i, p := range paths {
		impact, prob := 0.0, 1.0
		start := len(hopBuf)
		for _, class := range p[1:] {
			tm := byTree[h.lower[class]]
			impact += tm.impact
			prob *= tm.prob
			ci := index[class]
			hopBuf = append(hopBuf, ci)
			if bit[ci] < 0 {
				bit[ci] = len(c.hostClass)
				c.hostClass = append(c.hostClass, ci)
			}
		}
		hops := hopBuf[start:len(hopBuf):len(hopBuf)]
		c.hops[i] = hops
		c.metrics[i] = PathMetric{Impact: impact, Prob: prob}
		if len(hops) > 0 && !entered[hops[0]] {
			entered[hops[0]] = true
			c.entries = append(c.entries, hops[0])
		}
		if impact > c.aim {
			c.aim = impact
		}
		if n := len(hops); c.shortest == 0 || n < c.shortest {
			c.shortest = n
		}
		if prob > c.maxProb {
			c.maxProb = prob
		}
	}
	if len(c.hostClass) <= 64 {
		c.masks = make([]uint64, len(paths))
		for i, hops := range c.hops {
			for _, ci := range hops {
				c.masks[i] |= 1 << uint(bit[ci])
			}
		}
	}
	return c, nil
}

// evaluate is the multiplicity arithmetic over the compiled form; mult
// is aligned with Classes() and already validated.
func (f *FactoredHARM) evaluate(mult []int, opts EvalOptions) (Metrics, error) {
	c, err := f.compiled(opts)
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	for i, n := range c.leaves {
		m.NoEV += mult[i] * n
	}
	if !c.targets {
		return m, nil
	}
	m.AIM = c.aim
	m.ShortestPath = c.shortest
	m.Paths = make([]PathMetric, len(c.paths))
	copy(m.Paths, c.metrics)
	nodes := make([]string, c.nodes)
	for i, p := range c.paths {
		path := nodes[:len(p):len(p)]
		nodes = nodes[len(p):]
		copy(path, p)
		count := 1
		for _, ci := range c.hops[i] {
			count *= mult[ci]
		}
		m.Paths[i].Path = path
		m.Paths[i].Count = count
		m.NoAP += count
	}
	for _, ci := range c.entries {
		m.NoEP += mult[ci]
	}

	switch opts.Strategy {
	case ASPMaxPath:
		// Every expanded path along a quotient path shares its
		// probability, so the maximum is multiplicity-blind.
		m.ASP = c.maxProb
	case ASPIndependentPaths:
		q := 1.0
		for _, pm := range m.Paths {
			q *= intPow(1-pm.Prob, pm.Count)
		}
		m.ASP = mathx.Clamp01(1 - q)
	case ASPCompromise:
		// Per-class effective probability: at least one of the n_c
		// replicas compromised. The class events are independent, so the
		// expanded exact computation reduces to the same machinery over
		// quotient paths.
		asp, err := c.compromise(mult, opts.MaxPathsExact)
		if err != nil {
			return Metrics{}, err
		}
		m.ASP = asp
	default:
		return Metrics{}, fmt.Errorf("harm: unknown ASP strategy %d", opts.Strategy)
	}
	return m, nil
}

// compromise is compromiseProbability over the compiled bitmasks, with
// each class's probability raised to its multiplicity.
func (c *factoredForm) compromise(mult []int, maxExact int) (float64, error) {
	if len(c.paths) == 0 {
		return 0, nil
	}
	if c.masks == nil {
		return 0, fmt.Errorf("%w: %d distinct hosts exceed 64", ErrExactASPInfeasible, len(c.hostClass))
	}
	hostProb := make([]float64, len(c.hostClass))
	for i, ci := range c.hostClass {
		hostProb[i] = mathx.Clamp01(1 - intPow(1-c.prob[ci], mult[ci]))
	}
	return exactCompromise(c.masks, hostProb, maxExact)
}

// Classes returns the quotient's class names, sorted: the order of
// EvaluateVector's multiplicities.
func (f *FactoredHARM) Classes() []string { return f.h.Hosts() }

// intPow raises x to a non-negative integer power by binary
// exponentiation: exact for the 0/1 endpoints the attack trees produce,
// deterministic, and O(log n) even for the path-multiplicity exponents
// of large replica counts.
func intPow(x float64, n int) float64 {
	p := 1.0
	for n > 0 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
		n >>= 1
	}
	return p
}
