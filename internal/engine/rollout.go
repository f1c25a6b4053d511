package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
	"redpatch/internal/workpool"
)

// RolloutEvaluator is the optional DesignEvaluator extension scoring a
// design mid-rollout at per-tier patched fractions.
// *redundancy.Evaluator implements it; engines over evaluators that do
// not reject rollout requests.
type RolloutEvaluator interface {
	EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (redundancy.RolloutResult, error)
}

// rolloutEntry is one singleflight slot of the rollout memo, the
// RolloutResult counterpart of entry. Rollout entries are kept in their
// own map — and deliberately out of Snapshot/Restore, whose persisted
// format stays atomic-results-only.
type rolloutEntry struct {
	ready chan struct{}
	res   redundancy.RolloutResult
	err   error
}

// rolloutKey renders the memo identity of a rollout point: the spec's
// canonical key joined with the per-tier patched counts. Fractions that
// ceil to the same counts share one entry — the quotient structure, not
// the raw fraction, is what determines the models.
func rolloutKey(spec paperdata.DesignSpec, patched []int) string {
	parts := make([]string, len(patched))
	for i, p := range patched {
		parts[i] = strconv.Itoa(p)
	}
	return spec.Key() + "|rollout=" + strings.Join(parts, ",")
}

// EvaluateRollout scores one design at one rollout point (per-tier
// patched fractions aligned with spec.Tiers), serving repeats from the
// rollout memo. Concurrent calls for the same (spec, patched-counts)
// identity share a single solve, with the same join-abandon semantics
// as EvaluateSpecCtx. The returned result carries the requested spec
// and fractions even on a cache hit.
func (g *Engine) EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (redundancy.RolloutResult, error) {
	return g.evaluateRolloutTraced(ctx, spec, fractions,
		trace.Attr{Key: "design", Value: spec.Name})
}

// evaluateRolloutTraced opens the "engine.evaluate" span with the
// caller's attributes — RolloutSweep adds per-point queue wait.
func (g *Engine) evaluateRolloutTraced(ctx context.Context, spec paperdata.DesignSpec, fractions []float64, attrs ...trace.Attr) (res redundancy.RolloutResult, err error) {
	ctx, sp := trace.Start(ctx, "engine.evaluate", attrs...)
	defer func() { sp.EndErr(err) }()
	sp.SetAttr("rollout", true)

	re, ok := g.eval.(RolloutEvaluator)
	if !ok {
		return redundancy.RolloutResult{}, fmt.Errorf("engine: evaluator does not support rollout evaluation")
	}
	// PatchedCounts validates the spec.
	patched, err := redundancy.PatchedCounts(spec, fractions)
	if err != nil {
		return redundancy.RolloutResult{}, err
	}
	k := key{fp: g.fp, spec: rolloutKey(spec, patched)}

	g.mu.Lock()
	e, ok := g.rollout[k]
	if !ok {
		e = &rolloutEntry{ready: make(chan struct{})}
		g.rollout[k] = e
		g.mu.Unlock()
		sp.SetAttr("cache", "miss")
		g.rolloutSolves.Add(1)
		// Like evaluateSpec: the memoized result keeps its own copy of
		// the caller's Tiers.
		spec.Tiers = slices.Clone(spec.Tiers)
		func() {
			// Mirror evaluateSpec: the entry must reach a final state no
			// matter how the evaluator exits, and errors are never
			// memoized.
			defer func() {
				if p := recover(); p != nil {
					e.err = fmt.Errorf("engine: evaluator panic for rollout of %s: %v", spec, p)
				}
				if e.err != nil {
					g.mu.Lock()
					delete(g.rollout, k)
					g.mu.Unlock()
				}
				close(e.ready)
			}()
			e.res, e.err = re.EvaluateRollout(ctx, spec, fractions)
		}()
	} else {
		g.mu.Unlock()
		g.rolloutHits.Add(1)
		select {
		case <-e.ready:
			sp.SetAttr("cache", "hit")
		default:
			sp.SetAttr("cache", "inflight")
			select {
			case <-e.ready:
			case <-ctx.Done():
				return redundancy.RolloutResult{}, ctx.Err()
			}
		}
	}

	if e.err != nil {
		return redundancy.RolloutResult{}, e.err
	}
	r := e.res
	r.Spec = spec
	r.Fractions = append([]float64(nil), fractions...)
	return r, nil
}

// RolloutSweep evaluates every point of a rollout schedule on the
// worker pool, streaming results to fn in completion order with the
// point's schedule index. fn runs on a single collector goroutine;
// returning an error cancels the sweep. progress (optional) runs there
// too after every completed point. The whole sweep runs under a
// "rollout.sweep" span; each point's evaluate span carries its queue
// wait, like design sweeps.
func (g *Engine) RolloutSweep(ctx context.Context, spec paperdata.DesignSpec, points [][]float64, fn func(step int, r redundancy.RolloutResult) error, progress func(done, total int)) (err error) {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(points) == 0 {
		return fmt.Errorf("engine: rollout sweep has no points")
	}
	ctx, sp := trace.Start(ctx, "rollout.sweep",
		trace.Attr{Key: "design", Value: spec.Name},
		trace.Attr{Key: "points", Value: len(points)})
	defer func() { sp.EndErr(err) }()
	start := time.Now()
	done := 0
	var firstErr error
	workpool.StreamCtx(ctx, g.workers, points,
		func(_ int, fr []float64) (redundancy.RolloutResult, error) {
			if err := ctx.Err(); err != nil {
				return redundancy.RolloutResult{}, err
			}
			wait := time.Since(start)
			r, err := g.evaluateRolloutTraced(ctx, spec, fr,
				trace.Attr{Key: "design", Value: spec.Name},
				trace.Attr{Key: "queue_wait_ns", Value: wait.Nanoseconds()})
			if err != nil {
				err = fmt.Errorf("engine: rollout point %v: %w", fr, err)
			}
			return r, err
		},
		func(idx int, r redundancy.RolloutResult, err error) bool {
			if err != nil {
				firstErr = err
				return false
			}
			done++
			if progress != nil {
				progress(done, len(points))
			}
			if err := fn(idx, r); err != nil {
				firstErr = err
				return false
			}
			return true
		}, nil)
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
