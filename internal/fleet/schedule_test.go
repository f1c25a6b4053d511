package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"redpatch/internal/patch"
)

// oraclePickCycle is the scheduler's original picker, kept as the
// reference for pickCycle: filter the pending states, stable-sort them
// by score (descending) then ID, keep the first max. It sorts on every
// call and ignores the order of states, so a run driven by it checks
// rankStates as well as pickCycle.
func oraclePickCycle(dst, states []*schedState, max int) []*schedState {
	eligible := make([]*schedState, 0, len(states))
	for _, st := range states {
		if st.pending() {
			eligible = append(eligible, st)
		}
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		si, sj := eligible[i].plan.Score, eligible[j].plan.Score
		if si != sj {
			return si > sj
		}
		return eligible[i].plan.System.ID < eligible[j].plan.System.ID
	})
	if len(eligible) > max {
		eligible = eligible[:max]
	}
	return append(dst, eligible...)
}

// randomFleet draws n systems from a small space (three app tier sizes,
// two roles, three windows, three priorities), so scores tie often.
// About a third of the systems copy an earlier one under a new ID,
// which forces exact ties that only the ID breaks; IDs are shuffled so
// the tiebreak order differs from the draw order.
func randomFleet(rng *rand.Rand, n int) []System {
	ids := rng.Perm(n)
	out := make([]System, n)
	for i := range out {
		if i > 0 && rng.Intn(3) == 0 {
			out[i] = out[rng.Intn(i)]
		} else {
			s := testSystem("")
			s.Tiers = append([]TierSpec(nil), s.Tiers...)
			s.Tiers[2].Replicas = 1 + rng.Intn(3)
			s.Role = []string{"app", "web"}[rng.Intn(2)]
			s.WindowMinutes = []float64{35, 60, 120}[rng.Intn(3)]
			s.Priority = []float64{0, 1.5, 2}[rng.Intn(3)]
			s.DeadlineHours = []float64{0, 1, 720, 1440}[rng.Intn(4)]
			s.SuccessProbability = []float64{0, 0.5, 0.9}[rng.Intn(3)]
			s.RollbackMinutes = 10
			out[i] = s
		}
		out[i].ID = fmt.Sprintf("s%02d", ids[i])
	}
	return out
}

// collect runs a simulation and returns its events and summary.
func collect(t *testing.T, run func(emit func(Event) error) (Summary, error)) ([]Event, Summary) {
	t.Helper()
	var events []Event
	sum, err := run(func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events, sum
}

// TestScheduleMatchesOracle is the schedule property: over seeded
// random fleets with forced score ties and every cap from 1 to n+1, the
// rank-once picker must produce the oracle's window order, cycle count
// and deadline flags, and a simulation with rollbacks must emit the
// oracle's events, also from a plan whose systems are out of ID order.
func TestScheduleMatchesOracle(t *testing.T) {
	resolve := testResolver(t)
	ctx := context.Background()
	var ties, rollbacks int
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		systems := randomFleet(rng, 1+rng.Intn(10))
		for max := 1; max <= len(systems)+1; max++ {
			opts := PlanOptions{MaxConcurrent: max}
			plan, err := PlanFleet(ctx, systems, resolve, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range plan.Systems {
				for j := i + 1; j < len(plan.Systems); j++ {
					if plan.Systems[i].Score == plan.Systems[j].Score {
						ties++
					}
				}
			}
			fresh := make([]SystemPlan, len(plan.Systems))
			for i, sp := range plan.Systems {
				sp.DeadlineAtRisk = false
				fresh[i] = sp
			}
			want, err := schedule(ctx, fresh, opts.withDefaults(), oraclePickCycle)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.Windows, want.Windows) || plan.Cycles != want.Cycles ||
				!reflect.DeepEqual(plan.DeadlineAtRisk, want.DeadlineAtRisk) {
				t.Fatalf("seed %d cap %d: plan (%d windows, %d cycles, at risk %v) differs from the oracle's (%d, %d, %v)",
					seed, max, len(plan.Windows), plan.Cycles, plan.DeadlineAtRisk,
					len(want.Windows), want.Cycles, want.DeadlineAtRisk)
			}

			shuffled := plan
			shuffled.Systems = append([]SystemPlan(nil), plan.Systems...)
			rng.Shuffle(len(shuffled.Systems), func(i, j int) {
				shuffled.Systems[i], shuffled.Systems[j] = shuffled.Systems[j], shuffled.Systems[i]
			})
			simOpts := SimOptions{Seed: seed, MaxConcurrent: max, MaxAttempts: 2}
			for name, p := range map[string]Plan{"plan": plan, "shuffled": shuffled} {
				got, gotSum := collect(t, func(emit func(Event) error) (Summary, error) {
					return Simulate(ctx, p, simOpts, emit)
				})
				ref, refSum := collect(t, func(emit func(Event) error) (Summary, error) {
					return simulate(ctx, p, simOpts.withDefaults(), oraclePickCycle, emit)
				})
				if !reflect.DeepEqual(got, ref) || gotSum != refSum {
					t.Fatalf("seed %d cap %d %s: simulation (%d events, %+v) differs from the oracle's (%d, %+v)",
						seed, max, name, len(got), gotSum, len(ref), refSum)
				}
				rollbacks += gotSum.RolledBack
			}
		}
	}
	if ties == 0 || rollbacks == 0 {
		t.Fatalf("the fleets drew %d score ties and %d rollbacks; the property needs both", ties, rollbacks)
	}
}

// countingEngine counts PlanCampaign calls per (role, window) and fails
// every campaign of the role named by fail.
type countingEngine struct {
	Engine
	mu    sync.Mutex
	calls map[campaignKey]int
	fail  string
}

func (c *countingEngine) PlanCampaign(role string, window time.Duration) (patch.Campaign, error) {
	c.mu.Lock()
	c.calls[campaignKey{role: role, window: window}]++
	c.mu.Unlock()
	if role == c.fail {
		return patch.Campaign{}, errors.New("planner down")
	}
	return c.Engine.PlanCampaign(role, window)
}

// TestPlanFleetPlansEachCampaignOnce: 48 systems over 2 scenarios × 2
// roles × 3 windows share 12 campaigns, and each PlanFleet call plans
// each of them exactly once — no more under a concurrent fan-out, and
// no fewer on the next call (nothing is kept across calls). A failing
// campaign still fails the whole plan, naming a system that needs it.
func TestPlanFleetPlansEachCampaignOnce(t *testing.T) {
	def, err := testResolver(t)("")
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*countingEngine{
		"":    {Engine: def, calls: map[campaignKey]int{}},
		"alt": {Engine: def, calls: map[campaignKey]int{}},
	}
	resolve := func(scenario string) (Engine, error) {
		eng, ok := engines[scenario]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", scenario)
		}
		return eng, nil
	}
	var systems []System
	for i := 0; i < 48; i++ {
		s := testSystem(fmt.Sprintf("s%02d", i))
		s.Scenario = []string{"", "alt"}[i%2]
		s.Role = []string{"app", "web"}[i/2%2]
		s.WindowMinutes = []float64{35, 60, 120}[i/4%3]
		systems = append(systems, s)
	}

	for call := 1; call <= 2; call++ {
		if _, err := PlanFleet(context.Background(), systems, resolve, PlanOptions{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		for scenario, eng := range engines {
			if len(eng.calls) != 6 {
				t.Errorf("scenario %q: %d distinct campaigns planned, want 6", scenario, len(eng.calls))
			}
			for key, n := range eng.calls {
				if n != call {
					t.Errorf("scenario %q: %s/%v planned %d times after %d plans, want %d",
						scenario, key.role, key.window, n, call, call)
				}
			}
		}
	}

	// s02 is the first system of the default scenario's web campaigns.
	engines[""].fail = "web"
	if _, err := PlanFleet(context.Background(), systems, resolve, PlanOptions{Workers: 1}); err == nil ||
		err.Error() != "fleet: s02: planner down" {
		t.Errorf("serial plan error = %v, want the first failing system s02 named", err)
	}
	plan, err := PlanFleet(context.Background(), systems, resolve, PlanOptions{Workers: 4})
	if err == nil {
		t.Fatalf("plan succeeded with %d systems despite a failing campaign", len(plan.Systems))
	}
	id, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "fleet: "), ":")
	var failing bool
	for _, s := range systems {
		failing = failing || (s.ID == id && s.Scenario == "" && s.Role == "web")
	}
	if !failing || !strings.HasSuffix(err.Error(), "planner down") {
		t.Errorf("concurrent plan error = %v, want a default-scenario web system named", err)
	}
}
