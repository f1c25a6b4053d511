package main

// The traced per-layer run. It replays the workload's generated inputs
// against a fresh daemon with half of the operations traced, splits
// client time from server time with /metrics deltas, then replays the
// same seeded inputs through each layer's exported functions in process
// (the ladder). Spans are recorded by the benchmark around its own calls
// into each layer, kept in memory, and written out when the run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redpatch"
	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/engine"
	"redpatch/internal/fleet"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
)

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// span is an open span; a nil *span records nothing, which is how
// untraced operations run.
type span struct {
	t   *tracer
	rec spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) root(name string) *span {
	id := t.ids.Add(1)
	return &span{t: t, rec: spanRec{Name: name, Trace: id, ID: id, Start: int64(time.Since(t.epoch))}}
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, rec: spanRec{Name: name, Trace: s.rec.Trace, ID: s.t.ids.Add(1), Parent: s.rec.ID, Start: int64(time.Since(s.t.epoch))}}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// selfTimes sums, per span name, the span count, total duration and self
// time: duration minus the part its children cover. A span's children
// never overlap, since each is a sequential call.
func (t *tracer) selfTimes() map[string]*[3]float64 {
	children := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*[3]float64{}
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &[3]float64{}
			out[s.Name] = a
		}
		a[0]++
		a[1] += float64(s.End - s.Start)
		a[2] += float64(s.End - s.Start - children[s.ID])
	}
	return out
}

func (t *tracer) write(path string, cfg config) error {
	b, err := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// engineCounters are the per-scenario engine counters the traced run
// reads from /metrics.
var engineCounters = []string{"solves_total", "cache_hits_total", "tier_solves_total",
	"security_solves_total", "rollout_solves_total", "rollout_cache_hits_total"}

// runTraced produces every per-layer metric. Counters and server times
// describe the workload named on the command line; a metric whose call
// the workload never makes (a sweep stream, a rollout) reads 0. Ladder
// metrics come from the seeded inputs of all four workloads.
func runTraced(cfg config) (result, error) {
	tr := newTracer()
	win, err := runWindow(cfg.workload, cfg.seed, cfg.seconds, cfg.bin, tr)
	if err != nil {
		return result{}, err
	}
	win.reportErrors()
	n := len(win.ops)
	if n == 0 {
		return result{}, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}
	m, err := runLadder(cfg.seed, tr)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	ops := float64(n)

	// Server time per operation and per route, from the route histograms.
	delta := win.after.delta(win.before)
	var serverSec, streamSec float64
	for _, route := range win.w.routes() {
		sum := delta.routeSeconds(route)
		serverSec += sum
		if route == "POST /api/v2/sweep/stream" {
			streamSec = sum
		}
	}
	var latSum, bytes float64
	var traced, untraced []float64
	designs := 0
	for _, r := range win.ops {
		latSum += r.latency.Seconds()
		bytes += float64(r.bytes)
		designs += r.designs
		if r.traced {
			traced = append(traced, r.latency.Seconds())
		} else {
			untraced = append(untraced, r.latency.Seconds())
		}
	}
	serverUS := serverSec / ops * 1e6
	m["redpatchd.server_ms"] = metric{serverUS / 1000, "ms"}
	m["redpatchd.response_bytes_per_op"] = metric{bytes / ops, "bytes"}
	m["net.client_minus_server_us"] = metric{latSum/ops*1e6 - serverUS, "us"}

	// The facade's in-process cost of one operation of this workload.
	var facadeUS, facadePerDesign float64
	switch cfg.workload {
	case "evaluate-warm":
		facadeUS = m["redpatch.evaluate_hit_us"].Value
	case "sweep-warm":
		facadePerDesign = m["redpatch.sweep_warm_us_per_design"].Value
		facadeUS = facadePerDesign * float64(designs) / ops
	case "policy-cold":
		facadePerDesign = m["redpatch.sweep_cold_us_per_design"].Value
		facadeUS = m["redpatch.new_case_study_ms"].Value*1000 + facadePerDesign*float64(designs)/ops +
			m["redpatch.rollout_sweep_cold_ms"].Value*1000*rolloutDesign
	case "fleet-plan":
		facadeUS = m["fleet.plan_ms"].Value * 1000
	}
	m["redpatchd.handler_us"] = metric{serverUS - facadeUS, "us"}
	stream := 0.0
	if streamSec > 0 && designs > 0 {
		stream = streamSec/float64(designs)*1e6 - facadePerDesign
	}
	m["redpatchd.stream_us_per_design"] = metric{stream, "us"}

	wait := 0.0
	if c := delta["redpatchd_engine_queue_wait_seconds_count"]; c > 0 {
		wait = delta["redpatchd_engine_queue_wait_seconds_sum"] / c * 1e6
	}
	m["engine.queue_wait_us"] = metric{wait, "us"}

	// Engine counters: the default scenario's deltas, or for policy-cold
	// the per-cycle scenarios' totals scraped before each deletion.
	cnt := map[string]float64{}
	for _, c := range engineCounters {
		cnt[c] = delta.engine(c, "default")
	}
	for _, r := range win.ops {
		for c, v := range r.counters {
			cnt[c] += v
		}
	}
	m["engine.hit_ratio"] = metric{ratio(cnt["cache_hits_total"], cnt["solves_total"]), "ratio"}
	m["engine.solves_per_op"] = metric{cnt["solves_total"] / ops, "count"}
	m["engine.rollout_hit_ratio"] = metric{ratio(cnt["rollout_cache_hits_total"], cnt["rollout_solves_total"]), "ratio"}
	m["availability.tier_solves_per_op"] = metric{cnt["tier_solves_total"] / ops, "count"}
	m["harm.security_solves_per_op"] = metric{cnt["security_solves_total"] / ops, "count"}

	tracedMed, untracedMed := median(traced), median(untraced)
	m["perfbench.trace_overhead_pct"] = metric{(tracedMed - untracedMed) / untracedMed * 100, "%"}
	st := tr.selfTimes()
	op := st[cfg.workload+".op"] // the first operation of each client is traced
	m["perfbench.client_self_us"] = metric{op[2] / op[0] / 1000, "us"}

	fmt.Printf("loop=closed clients=%d ops=%d traced=%d window_s=%.3f\n", win.w.clients(), n, len(traced), win.length.Seconds())
	fmt.Printf("trace overhead: traced p50 %.4f ms, untraced p50 %.4f ms\n", tracedMed*1000, untracedMed*1000)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-48s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		a := st[name]
		fmt.Printf("%-48s %8.0f %12.3f %12.3f\n", name, a[0], a[1]/1e6, a[2]/1e6)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, cfg); err != nil {
		return result{}, err
	}
	fmt.Println("spans written to", path)
	failed := win.failures()
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, nil
}

// ratio is hits over lookups, or 0 when there were no lookups.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// ladder times calls into single layers. Each rung runs a pass over its
// inputs several times under one root span, one child span per pass, and
// keeps the median pass.
type ladder struct {
	tr *tracer
}

func (l *ladder) rung(name, call string, reps int, pass func() error) (time.Duration, error) {
	root := l.tr.root("ladder." + name)
	defer root.end()
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := root.child(call)
		t0 := time.Now()
		err := pass()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, float64(d))
	}
	return time.Duration(median(times)), nil
}

func us(d time.Duration, per int) float64 { return d.Seconds() * 1e6 / float64(per) }

func pdSpec(s redpatch.DesignSpec) paperdata.DesignSpec {
	out := paperdata.DesignSpec{Name: s.Name}
	for _, t := range s.Tiers {
		out.Tiers = append(out.Tiers, paperdata.TierSpec{Role: t.Role, Replicas: t.Replicas, Variant: t.Variant})
	}
	return out
}

func engineSweep(req redpatch.SpecSweepRequest) engine.SweepSpec {
	var s engine.SweepSpec
	for _, t := range req.Tiers {
		s.Tiers = append(s.Tiers, engine.TierSweep{Role: t.Role, Replicas: engine.Range{Min: t.Min, Max: t.Max}})
	}
	return s
}

// evaluatorOptions mirrors how the facade maps a scenario policy onto
// the evaluator.
func evaluatorOptions(p policy) redundancy.Options {
	pol := patch.CriticalPolicy()
	if p.PatchAll {
		pol = patch.Policy{PatchAll: true}
	} else if p.CriticalThreshold > 0 {
		pol = patch.Policy{CriticalThreshold: p.CriticalThreshold}
	}
	sch := patch.MonthlySchedule()
	if p.IntervalHours > 0 {
		sch.Interval = time.Duration(p.IntervalHours * float64(time.Hour))
	}
	return redundancy.Options{Policy: &pol, Schedule: &sch}
}

// runLadder measures every in-process rung on the seed's inputs.
func runLadder(seed int64, tr *tracer) (map[string]metric, error) {
	l := &ladder{tr: tr}
	m := map[string]metric{}
	if err := l.warmRungs(seed, m); err != nil {
		return nil, err
	}
	if err := l.coldRungs(seed, m); err != nil {
		return nil, err
	}
	if err := l.fleetRungs(seed, m); err != nil {
		return nil, err
	}
	return m, nil
}

// warmRungs: memo hits through the facade and the engine on the
// evaluate-warm pool and the sweep-warm space, spec keys, and the sweep
// trailer's Pareto front.
func (l *ladder) warmRungs(seed int64, m map[string]metric) error {
	ctx := context.Background()
	pool := newEvaluateWarm(rand.New(rand.NewSource(seed))).pool
	req := newSweepWarm(rand.New(rand.NewSource(seed))).req
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		return err
	}
	eng, err := engine.New(ev, engine.Options{})
	if err != nil {
		return err
	}
	pds := make([]paperdata.DesignSpec, len(pool))
	for i, s := range pool {
		pds[i] = pdSpec(s)
		if _, err := study.EvaluateSpecCtx(ctx, s); err != nil {
			return err
		}
		if _, err := eng.EvaluateSpecCtx(ctx, pds[i]); err != nil {
			return err
		}
	}
	d, err := l.rung("evaluate-hit-facade", "redpatch.CaseStudy.EvaluateSpecCtx", 200, func() error {
		for _, s := range pool {
			if _, err := study.EvaluateSpecCtx(ctx, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["redpatch.evaluate_hit_us"] = metric{us(d, len(pool)), "us"}
	d, err = l.rung("evaluate-hit-engine", "engine.Engine.EvaluateSpecCtx", 200, func() error {
		for _, s := range pds {
			if _, err := eng.EvaluateSpecCtx(ctx, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["engine.evaluate_hit_us"] = metric{us(d, len(pds)), "us"}
	m["redpatch.self_us"] = metric{m["redpatch.evaluate_hit_us"].Value - m["engine.evaluate_hit_us"].Value, "us"}
	d, err = l.rung("spec-key", "paperdata.DesignSpec.Key", 200, func() error {
		for _, s := range pds {
			_ = s.Key()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["paperdata.key_us"] = metric{us(d, len(pds)), "us"}

	var reports []redpatch.DesignReport
	sweepFacade := func() error {
		reports = reports[:0]
		_, err := study.SweepSpecEach(ctx, req, func(r redpatch.DesignReport) error {
			reports = append(reports, r)
			return nil
		})
		return err
	}
	if err := sweepFacade(); err != nil { // warm the space
		return err
	}
	d, err = l.rung("sweep-hit-facade", "redpatch.CaseStudy.SweepSpecEach", 7, sweepFacade)
	if err != nil {
		return err
	}
	m["redpatch.sweep_warm_us_per_design"] = metric{us(d, len(reports)), "us"}
	es := engineSweep(req)
	sweepEngine := func() error {
		_, err := eng.SweepFunc(ctx, es, func(redundancy.Result) error { return nil })
		return err
	}
	if err := sweepEngine(); err != nil {
		return err
	}
	d, err = l.rung("sweep-hit-engine", "engine.Engine.SweepFunc", 7, sweepEngine)
	if err != nil {
		return err
	}
	m["engine.sweep_hit_us_per_design"] = metric{us(d, len(reports)), "us"}
	d, err = l.rung("pareto", "redpatch.Pareto", 7, func() error {
		if len(redpatch.Pareto(reports)) == 0 {
			return fmt.Errorf("empty Pareto front over %d reports", len(reports))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["redpatch.pareto_ms"] = metric{d.Seconds() * 1000, "ms"}
	return nil
}

// coldRungs replays the first policy-cold cycles: scenario construction,
// the cold sweep, rollout sweeps, and below the facade the evaluator's
// cold path, its tier factors and the quotient security model.
func (l *ladder) coldRungs(seed int64, m map[string]metric) error {
	ctx := context.Background()
	const cycles = 3
	pc := &policyCold{seed: seed}
	var newStudy, sweepCold, rollout, evalCold, rolloutPoint, tierFactor, quotient []float64
	var tierHits, tierSolves, secHits, secSolves float64
	db := paperdata.VulnDB()
	trees := paperdata.Trees(db)
	evalOpts := harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}
	for i := 0; i < cycles; i++ {
		cy := pc.cycle(i)
		var study *redpatch.CaseStudy
		d, err := l.rung("new-case-study", "redpatch.NewCaseStudyWithConfig", 1, func() error {
			var err error
			study, err = redpatch.NewCaseStudyWithConfig(cy.policy.config())
			return err
		})
		if err != nil {
			return err
		}
		newStudy = append(newStudy, d.Seconds()*1000)
		n := 0
		d, err = l.rung("sweep-cold-facade", "redpatch.CaseStudy.SweepSpecEach", 1, func() error {
			_, err := study.SweepSpecEach(ctx, cy.sweep, func(redpatch.DesignReport) error { n++; return nil })
			return err
		})
		if err != nil {
			return err
		}
		sweepCold = append(sweepCold, us(d, n))
		for j, spec := range cy.designs {
			d, err := l.rung("rollout-sweep-cold", "redpatch.CaseStudy.RolloutSweepEach", 1, func() error {
				_, err := study.RolloutSweepEach(ctx, spec, cy.schedule[j], func(redpatch.RolloutReport) error { return nil }, nil)
				return err
			})
			if err != nil {
				return err
			}
			rollout = append(rollout, d.Seconds()*1000)
		}

		opts := evaluatorOptions(cy.policy)
		ev, err := redundancy.NewEvaluator(opts)
		if err != nil {
			return err
		}
		specs := engineSweep(cy.sweep).Designs()
		d, err = l.rung("evaluate-cold", "redundancy.Evaluator.EvaluateSpecContext", 1, func() error {
			for _, s := range specs {
				if _, err := ev.EvaluateSpecContext(ctx, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		evalCold = append(evalCold, us(d, len(specs)))
		st := ev.SolverStats()
		tierHits += float64(st.TierFactorHits)
		tierSolves += float64(st.TierSolves)
		secHits += float64(st.SecurityFactorHits)
		secSolves += float64(st.SecuritySolves)
		points := 0
		d, err = l.rung("evaluate-rollout", "redundancy.Evaluator.EvaluateRollout", 1, func() error {
			for j, spec := range cy.designs {
				pts, err := cy.schedule[j].Points(len(spec.Tiers))
				if err != nil {
					return err
				}
				for _, f := range pts {
					if _, err := ev.EvaluateRollout(ctx, pdSpec(spec), f); err != nil {
						return err
					}
					points++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rolloutPoint = append(rolloutPoint, us(d, points))

		// Distinct tiers of the space: one birth–death solve each.
		tiers := map[string]availability.Tier{}
		for _, s := range specs {
			nm, err := ev.NetworkModelFor(s)
			if err != nil {
				return err
			}
			for _, t := range nm.Tiers {
				tiers[fmt.Sprintf("%s/%d", t.Name, t.N)] = t
			}
		}
		d, err = l.rung("tier-factor", "availability.SolveTierFactor", 20, func() error {
			for _, t := range tiers {
				if _, err := availability.SolveTierFactor(t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		tierFactor = append(tierFactor, us(d, len(tiers)))

		// The space's one quotient structure, built and evaluated before
		// and after the patch round as the evaluator's security memo does
		// on a miss.
		pol := *opts.Policy
		keep := func(_ string, leaf *attacktree.Leaf) bool {
			v, ok := db.ByID(leaf.Ref)
			return !ok || !pol.Selects(v)
		}
		d, err = l.rung("security-quotient", "harm.BuildFactored+Evaluate", 20, func() error {
			q, mult, _, err := paperdata.SpecQuotient(specs[0])
			if err != nil {
				return err
			}
			top, err := paperdata.SpecTopology(q)
			if err != nil {
				return err
			}
			f, err := harm.BuildFactored(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: q.TargetStacks()})
			if err != nil {
				return err
			}
			if _, err := f.Evaluate(mult, evalOpts); err != nil {
				return err
			}
			p, err := f.Patched(keep)
			if err != nil {
				return err
			}
			_, err = p.Evaluate(mult, evalOpts)
			return err
		})
		if err != nil {
			return err
		}
		quotient = append(quotient, us(d, 1))
	}
	m["redpatch.new_case_study_ms"] = metric{median(newStudy), "ms"}
	m["redpatch.sweep_cold_us_per_design"] = metric{median(sweepCold), "us"}
	m["redpatch.rollout_sweep_cold_ms"] = metric{median(rollout), "ms"}
	m["redundancy.evaluate_cold_us"] = metric{median(evalCold), "us"}
	m["redundancy.rollout_us"] = metric{median(rolloutPoint), "us"}
	m["redundancy.tier_factor_hit_ratio"] = metric{ratio(tierHits, tierSolves), "ratio"}
	m["redundancy.security_factor_hit_ratio"] = metric{ratio(secHits, secSolves), "ratio"}
	m["availability.tier_factor_us"] = metric{median(tierFactor), "us"}
	m["harm.quotient_us"] = metric{median(quotient), "us"}
	return nil
}

// fleetRungs plans the fleet-plan registry in process on a warm engine,
// once per concurrency cap.
func (l *ladder) fleetRungs(seed int64, m map[string]metric) error {
	ctx := context.Background()
	systems := newFleetPlan(rand.New(rand.NewSource(seed))).systems
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}
	resolve := func(string) (fleet.Engine, error) { return study.FleetEngine(), nil }
	if _, err := fleet.PlanFleet(ctx, systems, resolve, fleet.PlanOptions{}); err != nil { // warm the engine
		return err
	}
	var plans, windows []float64
	for _, mc := range maxConcurrentChoices {
		var plan fleet.Plan
		d, err := l.rung("fleet-plan", "fleet.PlanFleet", 3, func() error {
			var err error
			plan, err = fleet.PlanFleet(ctx, systems, resolve, fleet.PlanOptions{MaxConcurrent: mc})
			return err
		})
		if err != nil {
			return err
		}
		plans = append(plans, d.Seconds()*1000)
		windows = append(windows, float64(len(plan.Windows)))
	}
	m["fleet.plan_ms"] = metric{median(plans), "ms"}
	mean := 0.0
	for _, w := range windows {
		mean += w / float64(len(windows))
	}
	m["fleet.windows_per_plan"] = metric{mean, "count"}
	return nil
}
