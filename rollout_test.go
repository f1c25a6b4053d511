package redpatch

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"testing"
)

// TestRolloutParetoPermutationInvariant feeds one rolling/6 sweep's
// points to RolloutPareto in several orders. Rollout points stream in
// completion order, and fractions that ceil to the same patched counts
// tie exactly, so the frontier must not depend on arrival order.
func TestRolloutParetoPermutationInvariant(t *testing.T) {
	s, _ := caseStudy(t)
	var points []RolloutReport
	_, err := s.RolloutSweepEach(context.Background(), ClassicSpec("", 1, 2, 2, 1),
		RolloutSchedule{Strategy: "rolling", Steps: 6},
		func(r RolloutReport) error {
			points = append(points, r)
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(ps []RolloutReport) string {
		b, err := json.Marshal(RolloutPareto(ps))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	perm := append([]RolloutReport(nil), points...)
	rng := rand.New(rand.NewPCG(1, 2))
	want := ""
	for i := 0; i < 20; i++ {
		switch i {
		case 0: // as streamed
		case 1:
			for l, r := 0, len(perm)-1; l < r; l, r = l+1, r-1 {
				perm[l], perm[r] = perm[r], perm[l]
			}
		default:
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
		got := encode(perm)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("permutation %d changed the frontier:\n got: %s\nwant: %s", i, got, want)
		}
	}
}
