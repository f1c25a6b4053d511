package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
)

// halfWarm builds an engine over a counting evaluator and warms every
// other design of the 16-design FullSpace(2), so warm and cold designs
// interleave in enumeration order. It returns the engine, the evaluator
// and the set of warm design names.
func halfWarm(t *testing.T) (*Engine, *countingEvaluator, map[string]bool) {
	t.Helper()
	ce := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(ce, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for i, d := range FullSpace(2).Designs() {
		if i%2 == 0 {
			if _, err := g.EvaluateSpec(d); err != nil {
				t.Fatal(err)
			}
			warm[d.Name] = true
		}
	}
	return g, ce, warm
}

// TestSweepServesWarmDesignsInline: in a half-warm sweep every design is
// emitted exactly once with its reference result, the warm half first
// and before the collector ever waits on the pool; warm designs count as
// hits and cold ones as solves, and progress reaches the total. Only
// the cold designs open an evaluate span; the sweep span counts the
// inline hits.
func TestSweepServesWarmDesignsInline(t *testing.T) {
	g, ce, warm := halfWarm(t)
	before := g.Stats()
	calls := ce.calls.Load()
	var mu sync.Mutex
	var spans []trace.SpanData
	ctx := trace.WithTracer(context.Background(), trace.New(trace.Options{OnEnd: func(d trace.SpanData) {
		mu.Lock()
		spans = append(spans, d)
		mu.Unlock()
	}}))

	emitted := map[string]int{}
	var order []string
	lastDone, lastTotal := 0, 0
	emittedAtFirstIdle := -1
	total, err := g.SweepFuncProgress(ctx, FullSpace(2), func(r redundancy.Result) error {
		want, err := paperEvaluator(t).EvaluateSpec(r.Spec)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("design %s: result differs from a direct evaluation", r.Spec.Name)
		}
		emitted[r.Spec.Name]++
		order = append(order, r.Spec.Name)
		return nil
	}, func(done, total int) {
		lastDone, lastTotal = done, total
	}, func() {
		if emittedAtFirstIdle < 0 {
			emittedAtFirstIdle = len(order)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	designs := FullSpace(2).Designs()
	if total != len(designs) || len(order) != len(designs) {
		t.Fatalf("total %d, emitted %d, want %d", total, len(order), len(designs))
	}
	for _, d := range designs {
		if emitted[d.Name] != 1 {
			t.Errorf("design %s emitted %d times, want once", d.Name, emitted[d.Name])
		}
	}
	for i, name := range order[:len(warm)] {
		if !warm[name] {
			t.Errorf("emission %d is cold design %s; warm designs come first", i, name)
		}
	}
	if emittedAtFirstIdle >= 0 && emittedAtFirstIdle < len(warm) {
		t.Errorf("idle ran after %d emissions, before the %d warm designs were out", emittedAtFirstIdle, len(warm))
	}
	after := g.Stats()
	cold := uint64(len(designs) - len(warm))
	if hits := after.Hits - before.Hits; hits != uint64(len(warm)) {
		t.Errorf("hits = %d, want %d (one per warm design)", hits, len(warm))
	}
	if solves := after.Solves - before.Solves; solves != cold {
		t.Errorf("solves = %d, want %d (one per cold design)", solves, cold)
	}
	if n := ce.calls.Load() - calls; n != int64(cold) {
		t.Errorf("evaluator ran %d times, want %d", n, cold)
	}
	if lastDone != len(designs) || lastTotal != len(designs) {
		t.Errorf("progress ended at %d/%d, want %d/%d", lastDone, lastTotal, len(designs), len(designs))
	}
	evaluates, inline := 0, any(nil)
	for _, d := range spans {
		switch d.Name {
		case "engine.evaluate":
			evaluates++
			v, _ := d.Attr("design")
			if name, _ := v.(string); warm[name] {
				t.Errorf("warm design %s opened an evaluate span", name)
			}
		case "engine.sweep":
			inline, _ = d.Attr("inline_hits")
		}
	}
	if evaluates != int(cold) || inline != len(warm) {
		t.Errorf("%d evaluate spans, inline_hits %v; want %d and %d", evaluates, inline, cold, len(warm))
	}
}

// TestSweepCancelDuringInlinePass: a context cancelled while warm
// designs are being answered inline stops the sweep at the next design
// with the context's error, before any cold design reaches the pool.
func TestSweepCancelDuringInlinePass(t *testing.T) {
	g, ce, _ := halfWarm(t)
	calls := ce.calls.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := g.SweepFunc(ctx, FullSpace(2), func(redundancy.Result) error {
		emitted++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 1 {
		t.Errorf("emitted %d designs after cancellation, want 1", emitted)
	}
	if n := ce.calls.Load() - calls; n != 0 {
		t.Errorf("cancelled sweep started %d solves, want 0", n)
	}
}

// TestPeekAgreesWithInlineHits: Peek and the sweep's inline pass share
// one lookup, so a design Peek reports warm is exactly one the sweep
// answers without the evaluator.
func TestPeekAgreesWithInlineHits(t *testing.T) {
	g, _, warm := halfWarm(t)
	for _, d := range FullSpace(2).Designs() {
		if got := g.Peek(d); got != warm[d.Name] {
			t.Errorf("Peek(%s) = %v, want %v", d.Name, got, warm[d.Name])
		}
	}
	if g.Peek(paperdata.DesignSpec{}) {
		t.Error("Peek of an invalid spec reports a hit")
	}
}
