package fleet

import (
	"context"
	"fmt"
	"math/rand"

	"redpatch/internal/patch"
	"redpatch/internal/trace"
	"redpatch/internal/vulndb"
)

// SimOptions tunes the campaign simulator.
type SimOptions struct {
	// Seed feeds the deterministic RNG: the same plan and seed replay
	// the same campaign, window for window.
	Seed int64
	// MaxConcurrent caps systems patched per cycle (default 8, matching
	// PlanOptions).
	MaxConcurrent int
	// CycleHours is the cycle spacing (default 720).
	CycleHours float64
	// MaxAttempts bounds the tries per round before its vulnerabilities
	// are deferred for the rest of the campaign (default 3).
	MaxAttempts int
}

func (o SimOptions) withDefaults() SimOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.CycleHours <= 0 {
		o.CycleHours = 720
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// Event is one executed maintenance window of a simulated campaign.
type Event struct {
	// Seq numbers events in execution order.
	Seq int `json:"seq"`
	// Cycle and ElapsedHours place the window on the campaign clock.
	Cycle        int     `json:"cycle"`
	ElapsedHours float64 `json:"elapsedHours"`
	// SystemID names the patched system; Round indexes its campaign
	// round, Attempt counts the tries of that round so far (1-based).
	SystemID string `json:"systemId"`
	Round    int    `json:"round"`
	Attempt  int    `json:"attempt"`
	// Outcome is succeeded or rolledBack.
	Outcome patch.Outcome `json:"outcome"`
	// DowntimeMinutes is the window's outage: the round downtime on
	// success, the half-work + rollback + reboot cost on failure.
	DowntimeMinutes float64 `json:"downtimeMinutes"`
	// CVEs are the vulnerabilities the window attempted.
	CVEs []string `json:"cves"`
	// Requeued lists the CVEs returned to the queue by a rollback.
	Requeued []string `json:"requeued,omitempty"`
	// DeferredCVEs lists CVEs abandoned after exhausting MaxAttempts.
	DeferredCVEs []string `json:"deferredCves,omitempty"`
	// SystemResidualASP is the composite attack-surface probability of
	// the system's still-unpatched vulnerabilities after the window.
	SystemResidualASP float64 `json:"systemResidualAsp"`
	// ResidualASP is the priority-weighted fleet residual after the
	// window — monotonically non-increasing over the stream.
	ResidualASP float64 `json:"residualAsp"`
	// Availability is the fraction of the cycle the system is up given
	// the window's outage.
	Availability float64 `json:"availability"`
}

// Summary totals a simulated campaign.
type Summary struct {
	// Windows counts executed maintenance windows; Succeeded and
	// RolledBack split them by outcome.
	Windows    int `json:"windows"`
	Succeeded  int `json:"succeeded"`
	RolledBack int `json:"rolledBack"`
	// DeferredRounds counts rounds abandoned after MaxAttempts.
	DeferredRounds int `json:"deferredRounds"`
	// Cycles is the number of cycles the simulated campaign spanned.
	Cycles int `json:"cycles"`
	// FinalResidualASP is the fleet residual after the last window.
	FinalResidualASP float64 `json:"finalResidualAsp"`
	// TotalDowntimeMinutes sums every executed window's outage.
	TotalDowntimeMinutes float64 `json:"totalDowntimeMinutes"`
}

// simState tracks one system through the simulation: the rounds still
// pending (head = next to attempt), tries of the head round, and the
// vulnerabilities deferred so far.
type simState struct {
	sched    schedState
	attempts int
	att      patch.Attempt
	deferred []vulndb.Vulnerability // campaign-deferred + simulation-deferred
}

// residual returns the system's unpatched set: every pending round's
// vulnerabilities plus everything deferred.
func (st *simState) residual() []vulndb.Vulnerability {
	var out []vulndb.Vulnerability
	for i := st.sched.next; i < len(st.sched.plan.campaign.Rounds); i++ {
		out = append(out, st.sched.plan.campaign.Rounds[i].Selected...)
	}
	return append(out, st.deferred...)
}

// Simulate executes a fleet plan under the try-revert model: each cycle
// the same greedy rule that built the plan picks up to MaxConcurrent
// systems, each attempts its next pending round, and a seeded RNG
// decides success. A failed window pays the rollback downtime and
// re-queues its vulnerabilities (the system retries next cycle) until
// MaxAttempts sends them to the deferred set. Events stream through emit
// in execution order; a non-nil emit error aborts the simulation. The
// call runs under a "fleet.simulate" span with one "fleet.window" span
// per executed window.
//
// With every system's success probability at 1 the RNG never fires the
// rollback branch and the simulation reproduces the plan's schedule and
// residual trajectory exactly.
func Simulate(ctx context.Context, plan Plan, opts SimOptions, emit func(Event) error) (Summary, error) {
	opts = opts.withDefaults()
	ctx, span := trace.Start(ctx, "fleet.simulate",
		trace.Attr{Key: "systems", Value: len(plan.Systems)},
		trace.Attr{Key: "seed", Value: opts.Seed})
	sum, err := simulate(ctx, plan, opts, pickCycle, emit)
	if err != nil {
		span.EndErr(err)
		return Summary{}, err
	}
	span.SetAttr("windows", sum.Windows)
	span.SetAttr("rolled_back", sum.RolledBack)
	span.End()
	return sum, nil
}

func simulate(ctx context.Context, plan Plan, opts SimOptions, pick picker, emit func(Event) error) (Summary, error) {
	if len(plan.Systems) == 0 {
		return Summary{}, fmt.Errorf("fleet: empty plan")
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	states := make([]*simState, len(plan.Systems))
	schedView := make([]*schedState, len(plan.Systems))
	var weightSum float64
	for i := range plan.Systems {
		sp := &plan.Systems[i]
		states[i] = &simState{
			sched:    schedState{plan: sp},
			att:      sp.System.attempt(),
			deferred: append([]vulndb.Vulnerability(nil), sp.campaign.Deferred...),
		}
		schedView[i] = &states[i].sched
		weightSum += sp.System.priority()
	}
	if weightSum == 0 {
		weightSum = 1
	}
	// fleetResidual is maintained incrementally: each system contributes
	// priority × residual; only the patched system's term moves per
	// window, and the composite is canonical, so the trajectory is
	// deterministic and monotone non-increasing (a residual never grows).
	residuals := make([]float64, len(states))
	var fleetSum float64
	for i, st := range states {
		residuals[i] = vulndb.CompositeASP(st.residual())
		fleetSum += plan.Systems[i].System.priority() * residuals[i]
	}
	index := make(map[*schedState]int, len(states))
	for i := range states {
		index[schedView[i]] = i
	}
	rankStates(schedView)

	var sum Summary
	var active []*schedState
	for cycle := 0; ; cycle++ {
		if err := ctx.Err(); err != nil {
			return Summary{}, err
		}
		active = pick(active[:0], schedView, opts.MaxConcurrent)
		if len(active) == 0 {
			break
		}
		sum.Cycles = cycle + 1
		start := float64(cycle) * opts.CycleHours
		for _, sched := range active {
			i := index[sched]
			st := states[i]
			sp := sched.plan
			roundPlan := sp.campaign.Rounds[sched.next]
			st.attempts++

			_, wspan := trace.Start(ctx, "fleet.window",
				trace.Attr{Key: "system", Value: sp.System.ID},
				trace.Attr{Key: "cycle", Value: cycle},
				trace.Attr{Key: "round", Value: sched.next})

			ev := Event{
				Seq:          sum.Windows,
				Cycle:        cycle,
				ElapsedHours: start,
				SystemID:     sp.System.ID,
				Round:        sched.next,
				Attempt:      st.attempts,
				CVEs:         sp.Rounds[sched.next].CVEs,
			}
			if rng.Float64() < st.att.SuccessProbability {
				ev.Outcome = patch.OutcomeSucceeded
				ev.DowntimeMinutes = roundPlan.TotalDowntime().Minutes()
				sum.Succeeded++
				sched.next++
				st.attempts = 0
			} else {
				ev.DowntimeMinutes = roundPlan.FailedDowntime(st.att).Minutes()
				sum.RolledBack++
				if st.attempts >= opts.MaxAttempts {
					ev.Outcome = patch.OutcomeDeferred
					ev.DeferredCVEs = ev.CVEs
					st.deferred = append(st.deferred, roundPlan.Selected...)
					sum.DeferredRounds++
					sched.next++
					st.attempts = 0
				} else {
					ev.Outcome = patch.OutcomeRolledBack
					ev.Requeued = ev.CVEs
				}
			}

			next := vulndb.CompositeASP(st.residual())
			fleetSum += sp.System.priority() * (next - residuals[i])
			residuals[i] = next
			ev.SystemResidualASP = next
			ev.ResidualASP = fleetSum / weightSum
			ev.Availability = 1 - ev.DowntimeMinutes/60/opts.CycleHours
			if ev.Availability < 0 {
				ev.Availability = 0
			}

			sum.Windows++
			sum.TotalDowntimeMinutes += ev.DowntimeMinutes
			sum.FinalResidualASP = ev.ResidualASP

			wspan.SetAttr("outcome", ev.Outcome.String())
			wspan.End()

			if emit != nil {
				if err := emit(ev); err != nil {
					return Summary{}, err
				}
			}
		}
	}
	if sum.Windows == 0 {
		// A fleet with nothing to patch still reports its residual.
		sum.FinalResidualASP = fleetSum / weightSum
	}
	return sum, nil
}
