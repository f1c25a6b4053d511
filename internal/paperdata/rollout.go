package paperdata

import "fmt"

// Mid-rollout a replica class is mixed-version: some replicas already
// run the patched stack, the rest still run the unpatched one. The
// replica-symmetry argument behind SpecQuotient survives the split —
// within each sub-population the replicas are still identical and
// identically connected — so a rollout point quotients to at most two
// classes per (logical tier, stack) pair instead of one.

// RolloutQuotient is the mixed-version quotient of a design at one
// rollout point.
type RolloutQuotient struct {
	// Quotient is the sub-classed quotient spec: one single-replica tier
	// group per (logical tier, stack, patch-state) class. A class whose
	// patched count is 0 or its full size contributes one group; a mixed
	// class contributes two (unpatched first, then patched), wired
	// identically by SpecTopology since they share role and stack.
	Quotient DesignSpec
	// Mult maps the quotient topology's class host names to sub-class
	// multiplicities (replica counts).
	Mult map[string]int
	// PatchedHosts maps the host names of patched sub-classes to their
	// stack, for per-instance tree pruning downstream.
	PatchedHosts map[string]string
	// Structure is the replica-independent rollout structure key. The
	// quotient spec's own key cannot distinguish which of two duplicate
	// groups is the patched one, so the patch-state pattern is appended.
	Structure string
	// TierHosts gives, for each spec tier in order, the host names of
	// the unpatched [0] and patched [1] sub-classes its replicas join,
	// empty where the tier's class has no such sub-class. Mult is the
	// sum over tiers of their unpatched and patched replica counts into
	// these hosts.
	TierHosts [][2]string
}

// LogicalIndices returns, for each logical tier in Logical() order, the
// spec.Tiers indices of its groups — the original-index companion of
// Logical(), for mapping per-group data (rollout fractions, patched
// counts) kept in spec order onto the logical layering.
func (s DesignSpec) LogicalIndices() [][]int {
	index := make(map[string]int)
	var out [][]int
	for i, t := range s.Tiers {
		j, ok := index[t.Role]
		if !ok {
			j = len(out)
			index[t.Role] = j
			out = append(out, nil)
		}
		out[j] = append(out[j], i)
	}
	return out
}

// SpecRolloutQuotient collapses a spec's replicas into mixed-version
// classes at one rollout point: patched[i] of spec.Tiers[i]'s replicas
// run the patched stack. Per (logical tier, stack) class the patched
// counts of its groups merge; a class split by the rollout yields two
// quotient groups (unpatched, then patched). The degenerate points —
// all-zero and all-full patched counts — reproduce SpecQuotient's
// quotient spec, host names and multiplicities exactly, so the rollout
// path collapses to the atomic one at both endpoints.
func SpecRolloutQuotient(spec DesignSpec, patched []int) (RolloutQuotient, error) {
	if err := spec.Validate(); err != nil {
		return RolloutQuotient{}, err
	}
	if len(patched) != len(spec.Tiers) {
		return RolloutQuotient{}, fmt.Errorf("paperdata: design spec %q: %d patched counts for %d tiers",
			spec.Name, len(patched), len(spec.Tiers))
	}
	for i, p := range patched {
		if p < 0 || p > spec.Tiers[i].Replicas {
			return RolloutQuotient{}, fmt.Errorf("paperdata: design spec %q: tier %s: %d patched of %d replicas",
				spec.Name, spec.Tiers[i].label(), p, spec.Tiers[i].Replicas)
		}
	}

	classes, class := specClasses(spec)
	total := make([]int, len(classes.Tiers))
	done := make([]int, len(classes.Tiers))
	for i, t := range spec.Tiers {
		total[class[i]] += t.Replicas
		done[class[i]] += patched[i]
	}
	quotient := DesignSpec{Name: spec.Name + "/rollout", Tiers: make([]TierSpec, 0, len(classes.Tiers))}
	var counts []int                          // sub-class multiplicities, in quotient tier order
	var isPatched []bool                      // patch state per quotient tier
	var markers []byte                        // 'u'/'p' pattern appended to the structure key
	sub := make([][2]int, len(classes.Tiers)) // quotient tier of each class's unpatched/patched sub-class
	for c, t := range classes.Tiers {
		sub[c] = [2]int{-1, -1}
		appendClass := func(n int, p bool) {
			state, marker := 0, byte('u')
			if p {
				state, marker = 1, 'p'
			}
			markers = append(markers, marker)
			sub[c][state] = len(quotient.Tiers)
			quotient.Tiers = append(quotient.Tiers, t)
			counts = append(counts, n)
			isPatched = append(isPatched, p)
		}
		switch {
		case done[c] == 0:
			appendClass(total[c], false)
		case done[c] == total[c]:
			appendClass(total[c], true)
		default:
			appendClass(total[c]-done[c], false)
			appendClass(done[c], true)
		}
	}

	// The duplicate groups of a split class get consecutive host numbers
	// ("web1" unpatched, "web2" patched): classes are appended per role
	// contiguously, so the quotient's tiers are in Logical() order.
	hosts := classHosts(quotient)
	rq := RolloutQuotient{
		Quotient:     quotient,
		Mult:         make(map[string]int, len(quotient.Tiers)),
		PatchedHosts: make(map[string]string),
		Structure:    quotient.Key() + "|" + string(markers),
		TierHosts:    make([][2]string, len(spec.Tiers)),
	}
	for j, name := range hosts {
		rq.Mult[name] = counts[j]
		if isPatched[j] {
			rq.PatchedHosts[name] = quotient.Tiers[j].Stack()
		}
	}
	for i, c := range class {
		for state, j := range sub[c] {
			if j >= 0 {
				rq.TierHosts[i][state] = hosts[j]
			}
		}
	}
	return rq, nil
}
