package availability

import (
	"math/rand"
	"testing"

	"redpatch/internal/mathx"
)

// composeReference is the factored composition as ComposeNetwork ran it
// before the layout was split out: groups, quorums and per-group vectors
// rebuilt per call, every group's distribution convolved up from the
// unit distribution. It is the bit-identity oracle for Layout.Compose.
func composeReference(nm NetworkModel, factors []TierFactor) (coa, serviceAvailability float64) {
	total := float64(nm.TotalServers())
	groups := groupIndices(nm)
	quorumOK := make([]float64, len(groups))
	upGivenOK := make([]float64, len(groups))
	for g, idxs := range groups {
		pmf := []float64{1}
		for _, i := range idxs {
			pmf = convolve(pmf, factors[i].PMF)
		}
		q := nm.quorumOf(nm.Tiers[idxs[0]].group())
		for k := q; k < len(pmf); k++ {
			quorumOK[g] += pmf[k]
			upGivenOK[g] += float64(k) * pmf[k]
		}
	}
	serviceAvailability = 1
	for _, p := range quorumOK {
		serviceAvailability *= p
	}
	terms := make([]float64, len(groups))
	for g := range groups {
		term := upGivenOK[g]
		for h := range groups {
			if h != g {
				term *= quorumOK[h]
			}
		}
		terms[g] = term
	}
	return mathx.KahanSum(terms) / total, serviceAvailability
}

// TestLayoutComposeMatchesReference: over random grouped models, quorums
// included, a layout built once per tier structure must compose every
// replica vector of that structure to exactly the reference's COA and
// service availability, and ComposeNetwork must report the same values.
func TestLayoutComposeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nm := randomModel(rng)
		nm.Quorum = nil // a quorum bounds the replica counts redrawn below
		l := NewLayout(nm)
		for draw := 0; draw < 4; draw++ {
			factors := make([]TierFactor, len(nm.Tiers))
			for i := range nm.Tiers {
				nm.Tiers[i].N = 1 + rng.Intn(6)
				f, err := SolveTierFactor(nm.Tiers[i])
				if err != nil {
					t.Fatal(err)
				}
				factors[i] = f
			}
			wantCOA, wantSA := composeReference(nm, factors)
			coa, sa := l.Compose(factors)
			if coa != wantCOA || sa != wantSA {
				t.Fatalf("seed %d draw %d: Compose %v/%v != reference %v/%v", seed, draw, coa, sa, wantCOA, wantSA)
			}
			sol, err := ComposeNetwork(nm, factors)
			if err != nil {
				t.Fatal(err)
			}
			if sol.COA != wantCOA || sol.ServiceAvailability != wantSA {
				t.Fatalf("seed %d draw %d: ComposeNetwork %v/%v != reference %v/%v", seed, draw, sol.COA, sol.ServiceAvailability, wantCOA, wantSA)
			}
		}
	}
	// Quorums: the random models' own quorums, at their own sizes.
	for seed := int64(0); seed < 200; seed++ {
		nm := randomModel(rand.New(rand.NewSource(seed)))
		sol, err := SolveNetworkFactored(nm)
		if err != nil {
			t.Fatal(err)
		}
		factors := make([]TierFactor, len(nm.Tiers))
		for i, tier := range nm.Tiers {
			if factors[i], err = SolveTierFactor(tier); err != nil {
				t.Fatal(err)
			}
		}
		wantCOA, wantSA := composeReference(nm, factors)
		if sol.COA != wantCOA || sol.ServiceAvailability != wantSA {
			t.Fatalf("seed %d: quorum model %v/%v != reference %v/%v", seed, sol.COA, sol.ServiceAvailability, wantCOA, wantSA)
		}
	}
}

// TestLayoutComposeManyGroups covers the heap path of Compose's
// per-group scratch: more groups than its stack buffer holds.
func TestLayoutComposeManyGroups(t *testing.T) {
	var nm NetworkModel
	for g := 0; g < 11; g++ {
		nm.Tiers = append(nm.Tiers, Tier{
			Name: "t" + string(rune('a'+g)), Group: "g" + string(rune('a'+g)),
			N: 1 + g%3, LambdaEq: 0.01 * float64(g+1), MuEq: 1,
		})
	}
	factors := make([]TierFactor, len(nm.Tiers))
	for i, tier := range nm.Tiers {
		var err error
		if factors[i], err = SolveTierFactor(tier); err != nil {
			t.Fatal(err)
		}
	}
	wantCOA, wantSA := composeReference(nm, factors)
	if coa, sa := NewLayout(nm).Compose(factors); coa != wantCOA || sa != wantSA {
		t.Errorf("Compose %v/%v != reference %v/%v", coa, sa, wantCOA, wantSA)
	}
}
