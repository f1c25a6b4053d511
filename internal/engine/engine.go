// Package engine is the concurrent design-space evaluation engine on top
// of internal/redundancy: a bounded worker pool fans design evaluations
// out across cores, a keyed memo cache remembers every solved design
// (design tuple + policy fingerprint → Result), and in-flight deduplication
// ensures overlapping sweeps never solve the same HARM/CTMC models twice —
// the first caller computes, every concurrent duplicate waits for that one
// result. Sweeps (sweep.go) enumerate per-tier redundancy ranges and stream
// results through the administrator-bound filters incrementally, so large
// spaces never accumulate rejected results in memory. Pareto fronts are an
// output concern of the callers (internal/pareto).
//
// One Engine wraps one evaluator and therefore one patch policy and
// schedule; construct one engine per policy configuration (the redpatch
// facade does this per CaseStudy) and set Options.Fingerprint when several
// engines could ever share keys downstream.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
	"redpatch/internal/workpool"
)

// DesignEvaluator is the evaluation dependency: anything that can score
// one role-keyed design spec on both paper axes. *redundancy.Evaluator
// is the production implementation; tests substitute counting or
// blocking fakes. Implementations must be safe for concurrent use.
type DesignEvaluator interface {
	EvaluateSpec(paperdata.DesignSpec) (redundancy.Result, error)
}

// ContextEvaluator is the optional DesignEvaluator extension that
// accepts the caller's context, so solver-layer spans join the request
// trace. *redundancy.Evaluator implements it; evaluators that do not are
// called through plain EvaluateSpec and simply record no solver spans.
type ContextEvaluator interface {
	EvaluateSpecContext(context.Context, paperdata.DesignSpec) (redundancy.Result, error)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the evaluation pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Fingerprint distinguishes the wrapped evaluator's policy
	// configuration in cache keys. An engine never shares its cache, so
	// this only matters for operators that aggregate stats or persist
	// results across engines; empty is fine otherwise.
	Fingerprint string
}

// Stats counts the engine's cache behaviour. The JSON tags are the
// wire shape of the "engine" block in redpatchd's /healthz, scenario
// listing and sweep responses.
//
// Solves is the number of full model evaluations (underlying evaluator
// calls); Hits the number of requests served from the memo cache,
// including requests that joined an in-flight solve of the same design
// instead of starting their own. The solver counters mirror the wrapped
// evaluator's dispatch (SolverStats) when it exposes one —
// redundancy.Evaluator does — and stay zero for evaluators that do not.
type Stats struct {
	Solves uint64 `json:"solves"`
	Hits   uint64 `json:"hits"`
	// FactoredSolves is the number of network availability models
	// answered by the factored (per-tier birth–death) solver.
	FactoredSolves uint64 `json:"factoredSolves"`
	// TierSolves is the number of distinct (stack, replicas) tier
	// factors solved behind the factored path; TierFactorHits the number
	// served from the memo.
	TierSolves     uint64 `json:"tierSolves"`
	TierFactorHits uint64 `json:"tierFactorHits"`
	// SecurityFactored is the number of spec evaluations served by the
	// quotient (replica-symmetric) HARM evaluator; SecuritySolves the
	// number of factored security models built (one per variant
	// structure); SecurityFactorHits the number served from the
	// security memo.
	SecurityFactored   uint64 `json:"securityFactored"`
	SecuritySolves     uint64 `json:"securitySolves"`
	SecurityFactorHits uint64 `json:"securityFactorHits"`
	// RolloutSolves is the number of rollout points the engine
	// evaluated; RolloutHits the number served from (or deduplicated
	// onto) the rollout memo; RolloutModels the mixed-version security
	// models built (one per rollout structure); RolloutModelHits the
	// evaluations served from that memo.
	RolloutSolves    uint64 `json:"rolloutSolves"`
	RolloutHits      uint64 `json:"rolloutHits"`
	RolloutModels    uint64 `json:"rolloutModels"`
	RolloutModelHits uint64 `json:"rolloutModelHits"`
}

// SolverStatsProvider is the optional evaluator extension surfacing
// availability-solver dispatch counters through the engine's Stats.
type SolverStatsProvider interface {
	SolverStats() redundancy.SolverStats
}

// key identifies a solved model: the spec's canonical identity (tier
// order, roles, variants, replica counts) under the engine's policy
// fingerprint. The design name is deliberately excluded — renaming a
// design does not change its models — while variants are included, so
// a web tier and its webalt deployment never share a slot.
type key struct {
	fp, spec string
}

// entry is one singleflight cache slot. ready is closed once res/err are
// final; concurrent callers for the same key block on it instead of
// re-solving.
type entry struct {
	ready chan struct{}
	res   redundancy.Result
	err   error
}

// Engine is a concurrent, memoizing design evaluator. It is safe for
// concurrent use.
type Engine struct {
	eval    DesignEvaluator
	workers int
	fp      string

	mu      sync.Mutex
	cache   map[key]*entry
	rollout map[key]*rolloutEntry

	solves        atomic.Uint64
	hits          atomic.Uint64
	rolloutSolves atomic.Uint64
	rolloutHits   atomic.Uint64
	// done counts completed successful cache entries (Len's O(1)
	// source): bumped per solve that memoizes and per restored entry;
	// never decremented, since only erred entries leave the cache.
	done atomic.Uint64
}

// New builds an engine over eval. eval must be safe for concurrent use
// (see redundancy.Evaluator's documented guarantee).
func New(eval DesignEvaluator, opts Options) (*Engine, error) {
	if eval == nil {
		return nil, fmt.Errorf("engine: nil evaluator")
	}
	return &Engine{
		eval:    eval,
		workers: opts.Workers,
		fp:      opts.Fingerprint,
		cache:   make(map[key]*entry),
		rollout: make(map[key]*rolloutEntry),
	}, nil
}

// Stats returns a snapshot of the cache counters, merged with the
// evaluator's solver-dispatch counters when available.
func (g *Engine) Stats() Stats {
	st := Stats{
		Solves:        g.solves.Load(),
		Hits:          g.hits.Load(),
		RolloutSolves: g.rolloutSolves.Load(),
		RolloutHits:   g.rolloutHits.Load(),
	}
	if p, ok := g.eval.(SolverStatsProvider); ok {
		ss := p.SolverStats()
		st.FactoredSolves = ss.FactoredSolves
		st.TierSolves = ss.TierSolves
		st.TierFactorHits = ss.TierFactorHits
		st.SecurityFactored = ss.SecurityFactored
		st.SecuritySolves = ss.SecuritySolves
		st.SecurityFactorHits = ss.SecurityFactorHits
		st.RolloutModels = ss.RolloutModels
		st.RolloutModelHits = ss.RolloutModelHits
	}
	return st
}

// Evaluate scores one classic 4-tuple design through the spec path.
func (g *Engine) Evaluate(d paperdata.Design) (redundancy.Result, error) {
	if err := d.Validate(); err != nil {
		return redundancy.Result{}, err
	}
	return g.EvaluateSpec(d.Spec())
}

// EvaluateSpec scores one role-keyed design, serving repeats from the
// cache. Concurrent calls for the same spec identity share a single
// solve. The returned result carries the requested spec (name included)
// even on a cache hit.
func (g *Engine) EvaluateSpec(spec paperdata.DesignSpec) (redundancy.Result, error) {
	return g.EvaluateSpecCtx(context.Background(), spec)
}

// EvaluateSpecCtx is EvaluateSpec with the caller's context threaded
// through for tracing. When the context carries a tracer, the call
// records an "engine.evaluate" span whose cache attribute distinguishes
// a miss (this call solved), a hit (the memo had a completed entry) and
// an inflight join (a concurrent solve of the same design was in
// progress and this call waited for it). The context does not cancel an
// in-flight solve — a result being computed belongs to every caller
// deduplicated onto it, so the first caller's cancellation must not
// poison the shared entry — but a caller *joining* an in-flight solve
// abandons its wait when its context ends: the solve finishes and
// memoizes without it.
func (g *Engine) EvaluateSpecCtx(ctx context.Context, spec paperdata.DesignSpec) (redundancy.Result, error) {
	return g.evaluateSpecTraced(ctx, spec,
		trace.Attr{Key: "design", Value: spec.Name})
}

// evaluateSpecTraced opens the "engine.evaluate" span with the caller's
// attributes — the sweep path adds per-design queue wait on top of the
// design name.
func (g *Engine) evaluateSpecTraced(ctx context.Context, spec paperdata.DesignSpec, attrs ...trace.Attr) (res redundancy.Result, err error) {
	ctx, sp := trace.Start(ctx, "engine.evaluate", attrs...)
	defer func() { sp.EndErr(err) }()
	return g.evaluateSpec(ctx, sp, spec)
}

func (g *Engine) evaluateSpec(ctx context.Context, sp *trace.Span, spec paperdata.DesignSpec) (redundancy.Result, error) {
	if err := spec.Validate(); err != nil {
		return redundancy.Result{}, err
	}
	k := key{fp: g.fp, spec: spec.Key()}

	g.mu.Lock()
	e, ok := g.cache[k]
	if !ok {
		e = &entry{ready: make(chan struct{})}
		g.cache[k] = e
		g.mu.Unlock()
		sp.SetAttr("cache", "miss")
		g.solves.Add(1)
		// The memo outlives the call, so it must not share the caller's
		// Tiers: the solved result keeps its own copy of the spec.
		spec.Tiers = slices.Clone(spec.Tiers)
		func() {
			// The entry must reach a final state no matter how the
			// evaluator exits: a panic that skipped close(ready) would
			// wedge this key forever, hanging every later caller on the
			// channel. Surface it as the entry's error instead.
			defer func() {
				if p := recover(); p != nil {
					e.err = fmt.Errorf("engine: evaluator panic for design %s: %v", spec, p)
				}
				if e.err != nil {
					// Errors are not memoized: waiters already holding
					// this entry see it, but later callers retry rather
					// than read a possibly transient failure forever.
					g.mu.Lock()
					delete(g.cache, k)
					g.mu.Unlock()
				} else {
					g.done.Add(1)
				}
				close(e.ready)
			}()
			if ce, ok := g.eval.(ContextEvaluator); ok {
				e.res, e.err = ce.EvaluateSpecContext(ctx, spec)
			} else {
				e.res, e.err = g.eval.EvaluateSpec(spec)
			}
		}()
	} else {
		g.mu.Unlock()
		g.hits.Add(1)
		select {
		case <-e.ready:
			sp.SetAttr("cache", "hit")
		default:
			sp.SetAttr("cache", "inflight")
			// A join abandons its wait when the caller's deadline fires:
			// the in-flight solve continues (its result belongs to every
			// deduplicated caller and is memoized for the next request),
			// but this caller stops occupying a connection for it.
			select {
			case <-e.ready:
			case <-ctx.Done():
				return redundancy.Result{}, ctx.Err()
			}
		}
	}

	if e.err != nil {
		return redundancy.Result{}, e.err
	}
	r := e.res
	r.Spec = spec
	return r, nil
}

// Peek reports whether spec's result is already completed in the memo
// cache — no solve, no wait, no stats movement. Admission control uses
// it to let warm requests bypass the limiter: a true Peek means the
// matching EvaluateSpec call is a map lookup, safe to serve even on a
// saturated daemon. In-flight solves and erred entries read false.
func (g *Engine) Peek(spec paperdata.DesignSpec) bool {
	if spec.Validate() != nil {
		return false
	}
	_, ok := g.completed(spec)
	return ok
}

// completed returns spec's memo entry when it holds a finished,
// successful solve — the one lookup behind Peek and a sweep's inline
// hits. It neither counts a hit nor waits: in-flight and erred entries
// read as absent. spec must be valid.
func (g *Engine) completed(spec paperdata.DesignSpec) (*entry, bool) {
	k := key{fp: g.fp, spec: spec.Key()}
	g.mu.Lock()
	e, ok := g.cache[k]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		return e, e.err == nil
	default:
		return nil, false
	}
}

// EvaluateAll scores every design on the worker pool and returns results
// in input order — the concurrent, cached counterpart of
// redundancy.(*Evaluator).EvaluateAll, with identical output.
func (g *Engine) EvaluateAll(designs []paperdata.Design) ([]redundancy.Result, error) {
	return workpool.Map(g.workers, designs, func(_ int, d paperdata.Design) (redundancy.Result, error) {
		r, err := g.Evaluate(d)
		if err != nil {
			return redundancy.Result{}, fmt.Errorf("engine: design %s: %w", d, err)
		}
		return r, nil
	})
}
