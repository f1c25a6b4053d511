// Package cluster is the fault-tolerant sharded sweep layer behind
// redpatchd's coordinator mode: it partitions a sweep's design space
// into hash shards (paperdata.ShardIndex over DesignSpec.Key) and
// dispatches each shard to a worker — a redpatchd process in -worker
// mode, spoken to over the existing v2 NDJSON sweep protocol — with
// the robustness machinery a fleet of unreliable processes needs:
//
//   - a per-worker circuit breaker fed by dispatch outcomes and
//     periodic health probes (/readyz), so dead workers stop being
//     picked after a few failures and come back via half-open trials;
//   - per-shard attempt timeouts and capped exponential backoff with
//     full jitter between retries;
//   - hedged re-dispatch of straggler shards onto a second worker,
//     first result wins;
//   - reassignment: every retry re-picks the least-loaded available
//     worker, excluding the one that just failed;
//   - graceful degradation: a shard that exhausts its remote attempts
//     — or a sweep that starts with no available worker at all — runs
//     through the caller-supplied local evaluator, so a cluster of
//     zero is byte-identical to a single process.
//
// Results are deduplicated by design key as they stream in (a retried
// or hedged shard may re-emit designs its failed attempt already
// delivered; every emission is a correct evaluation of the same
// design, so dropping duplicates is safe). The coordinator's caller
// adds each deduplicated report to one incremental Pareto front
// (internal/pareto) as it forwards the line, so its trailer memory is
// the front, never the stream. Every dispatch and probe runs through an
// optional faultinject site, so the whole layer is chaos-testable
// in-process.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	randv2 "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"redpatch/internal/faultinject"
	"redpatch/internal/trace"
)

// Chaos site names the coordinator runs when Options.Chaos is set.
const (
	// ChaosSiteDispatch runs before every remote shard attempt.
	ChaosSiteDispatch = "cluster.dispatch"
	// ChaosSiteProbe runs before every health probe.
	ChaosSiteProbe = "cluster.probe"
)

// Shard identifies one hash partition of a sweep's design space:
// the designs whose paperdata.ShardIndex(key, Count) equals Index.
type Shard struct {
	Index int
	Count int
}

// Report is one evaluated design streamed back from a shard: the
// design's canonical cache key (the dedup identity) and the verbatim
// NDJSON report line it arrived as, so the coordinator can forward
// worker results byte-identical to locally evaluated ones.
type Report struct {
	Key  string
	Line []byte
}

// Worker is one remote evaluation endpoint. Implementations must be
// safe for concurrent use; the coordinator may run several shards —
// including hedged duplicates — on one worker at a time.
type Worker interface {
	// Name labels the worker in logs, metrics and spans.
	Name() string
	// Healthy reports whether the worker is ready to accept shards;
	// the probe the circuit breaker consumes (GET /readyz for the
	// HTTP worker).
	Healthy(ctx context.Context) error
	// RunShard executes one shard request (an opaque, caller-built
	// RPC body) and streams each evaluated design to emit as it
	// arrives. It returns the number of designs the shard enumerated.
	// An error — including a stream cut mid-shard — means the shard
	// must be retried elsewhere; designs already emitted stay valid.
	RunShard(ctx context.Context, body []byte, emit func(Report) error) (total int, err error)
}

// Job is one sweep to distribute: how to render a shard's RPC body,
// and how to evaluate a shard locally when no worker can.
type Job struct {
	// Body renders the worker RPC request for one shard — the v2
	// sweep request with the shard field set.
	Body func(Shard) ([]byte, error)
	// Local evaluates one shard in-process: the graceful-degradation
	// path. emit runs on the calling goroutine.
	Local func(ctx context.Context, shard Shard, emit func(Report) error) (total int, err error)
}

// Options tune the coordinator's robustness machinery. Zero values
// select the defaults noted on each field.
type Options struct {
	// ShardTimeout bounds one remote shard attempt (default 2m).
	ShardTimeout time.Duration
	// MaxAttempts is the number of remote attempts per shard before
	// falling back to local evaluation (default 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the full-jitter exponential
	// backoff between a shard's remote attempts: attempt n sleeps
	// uniform[0, min(BackoffBase<<n, BackoffCap)) (defaults 50ms, 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter is how long a shard attempt may run before a
	// duplicate attempt is dispatched to a second worker, first
	// result wins (default 15s; negative disables hedging).
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects the worker
	// before a half-open trial may close it again (default 10s).
	BreakerCooldown time.Duration
	// ProbeInterval is the health-probe cadence of Start (default 5s).
	ProbeInterval time.Duration
	// Chaos, when non-nil, threads the dispatch and probe sites
	// through the injector. Nil in production.
	Chaos *faultinject.Injector
	// Logger receives worker-failure and fallback events; nil
	// discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 15 * time.Second
	}
	if o.BreakerThreshold < 1 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 5 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// workerState is one worker plus its circuit breaker and load.
type workerState struct {
	w Worker

	mu          sync.Mutex
	inflight    int
	consecFails int
	openUntil   time.Time
	successes   uint64
	failures    uint64
}

// succeed closes the circuit.
func (ws *workerState) succeed() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.consecFails = 0
	ws.openUntil = time.Time{}
	ws.successes++
}

// fail records one failure; at threshold the circuit opens (and an
// already-open circuit's cooldown restarts, so a half-open trial that
// fails re-opens it).
func (ws *workerState) fail(threshold int, cooldown time.Duration) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.failures++
	ws.consecFails++
	if ws.consecFails >= threshold {
		ws.openUntil = time.Now().Add(cooldown)
	}
}

// Coordinator owns a set of workers and distributes sharded sweeps
// across them. Safe for concurrent use; many sweeps may run at once.
type Coordinator struct {
	workers []*workerState
	opts    Options

	dispatches     atomic.Uint64
	retries        atomic.Uint64
	hedges         atomic.Uint64
	localFallbacks atomic.Uint64
	shardsDone     atomic.Uint64
}

// New builds a coordinator over the given workers. An empty worker
// set is valid: every sweep then runs on the local path.
func New(workers []Worker, opts Options) *Coordinator {
	c := &Coordinator{opts: opts.withDefaults()}
	for _, w := range workers {
		c.workers = append(c.workers, &workerState{w: w})
	}
	return c
}

// Start runs the health-probe loop until ctx ends: every
// ProbeInterval each worker is probed, feeding the circuit breaker —
// an unreachable worker's circuit opens before any sweep pays for
// the discovery, and a recovered worker's closes again.
func (c *Coordinator) Start(ctx context.Context) {
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}

func (c *Coordinator) probeAll(ctx context.Context) {
	for _, ws := range c.workers {
		pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeInterval)
		err := c.opts.Chaos.HitCtx(pctx, ChaosSiteProbe)
		if err == nil {
			err = ws.w.Healthy(pctx)
		}
		cancel()
		if err != nil {
			ws.fail(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
			c.opts.Logger.Warn("cluster: worker probe failed",
				"worker", ws.w.Name(), "error", err)
		} else {
			ws.succeed()
		}
	}
}

// WorkerStatus is one worker's snapshot for metrics and /stats.
type WorkerStatus struct {
	Name        string
	Open        bool // circuit open (worker currently excluded)
	Inflight    int
	ConsecFails int
	Successes   uint64
	Failures    uint64
}

// Stats is a coordinator activity snapshot.
type Stats struct {
	Dispatches     uint64 // remote shard attempts started
	Retries        uint64 // attempts beyond a shard's first
	Hedges         uint64 // duplicate straggler dispatches
	LocalFallbacks uint64 // shards evaluated by Job.Local
	ShardsDone     uint64 // shards completed (any path)
	Workers        []WorkerStatus
}

// Stats snapshots the coordinator's counters and per-worker state.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		Dispatches:     c.dispatches.Load(),
		Retries:        c.retries.Load(),
		Hedges:         c.hedges.Load(),
		LocalFallbacks: c.localFallbacks.Load(),
		ShardsDone:     c.shardsDone.Load(),
	}
	now := time.Now()
	for _, ws := range c.workers {
		ws.mu.Lock()
		s.Workers = append(s.Workers, WorkerStatus{
			Name:        ws.w.Name(),
			Open:        now.Before(ws.openUntil),
			Inflight:    ws.inflight,
			ConsecFails: ws.consecFails,
			Successes:   ws.successes,
			Failures:    ws.failures,
		})
		ws.mu.Unlock()
	}
	return s
}

// WorkersAvailable reports whether any worker's circuit is closed (or
// cooled down enough for a half-open trial). False with workers
// configured means the whole fleet is dead or excluded — the signal
// redpatchd's admission layer turns into 429 + Retry-After instead
// of silently absorbing every sweep locally.
func (c *Coordinator) WorkersAvailable() bool {
	return c.pick(nil) != nil
}

// Workers reports how many workers are configured.
func (c *Coordinator) Workers() int { return len(c.workers) }

// pick returns the available worker with the least in-flight shards,
// skipping exclude; nil when none is available. Ties keep
// configuration order, so a freshly idle fleet fills round-robin-ish
// from the front rather than randomly.
func (c *Coordinator) pick(exclude *workerState) *workerState {
	now := time.Now()
	var best *workerState
	bestLoad := 0
	for _, ws := range c.workers {
		if ws == exclude {
			continue
		}
		ws.mu.Lock()
		open := now.Before(ws.openUntil)
		load := ws.inflight
		ws.mu.Unlock()
		if open {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = ws, load
		}
	}
	return best
}

// shardMsg is one event from a shard goroutine to the collector.
type shardMsg struct {
	report *Report // an evaluated design, when non-nil
	done   bool    // shard completed; total is valid
	total  int
	err    error // shard failed permanently
}

// Sweep distributes the job over shardCount shards and streams the
// deduplicated union of their results to emit (collector goroutine —
// emit and progress need no locking; an emit error cancels the
// sweep). progress runs after each completed shard with the
// cumulative design count. It returns the total designs enumerated
// across shards and the deduplicated kept count.
//
// With no available worker at call time the entire sweep runs as one
// local shard — the same enumeration, evaluation and emission order
// a plain single-process sweep produces.
func (c *Coordinator) Sweep(ctx context.Context, job Job, shardCount int, emit func(Report) error, progress func(designsDone int)) (total, kept int, err error) {
	ctx, sp := trace.Start(ctx, "cluster.sweep",
		trace.Attr{Key: "shards", Value: shardCount},
		trace.Attr{Key: "workers", Value: len(c.workers)})
	defer func() { sp.EndErr(err) }()

	if shardCount < 1 {
		shardCount = 1
	}
	if c.pick(nil) == nil {
		// Graceful degradation: no worker to shard over, so run the
		// whole space as one local shard — byte-identical to a
		// single-process sweep.
		c.localFallbacks.Add(1)
		sp.SetAttr("local_fallback", true)
		total, err = job.Local(ctx, Shard{Index: 0, Count: 1}, func(r Report) error {
			kept++
			return emit(r)
		})
		if err != nil {
			return 0, 0, err
		}
		c.shardsDone.Add(1)
		if progress != nil {
			progress(total)
		}
		return total, kept, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	msgs := make(chan shardMsg, 64)
	var wg sync.WaitGroup
	for i := 0; i < shardCount; i++ {
		wg.Add(1)
		go func(shard Shard) {
			defer wg.Done()
			c.runShard(ctx, job, shard, msgs)
		}(Shard{Index: i, Count: shardCount})
	}
	go func() {
		wg.Wait()
		close(msgs)
	}()

	seen := make(map[string]bool)
	var firstErr error
	for m := range msgs {
		if firstErr != nil {
			continue // drain: shard goroutines must never block on send
		}
		switch {
		case m.report != nil:
			if seen[m.report.Key] {
				continue // re-emission from a retried or hedged attempt
			}
			seen[m.report.Key] = true
			if err := emit(*m.report); err != nil {
				firstErr = err
				cancel()
			}
		case m.done:
			total += m.total
			c.shardsDone.Add(1)
			if progress != nil {
				progress(total)
			}
		case m.err != nil:
			firstErr = m.err
			cancel()
		}
	}
	if firstErr != nil {
		return 0, 0, firstErr
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	return total, len(seen), nil
}

// runShard drives one shard to completion: remote attempts with
// backoff, reassignment and hedging, then the local fallback. It
// sends every event on msgs and returns only when no goroutine it
// started can still touch msgs.
func (c *Coordinator) runShard(ctx context.Context, job Job, shard Shard, msgs chan<- shardMsg) {
	body, err := job.Body(shard)
	if err != nil {
		msgs <- shardMsg{err: fmt.Errorf("cluster: rendering shard %d/%d: %w", shard.Index, shard.Count, err)}
		return
	}
	var last *workerState
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		ws := c.pick(last)
		if ws == nil && last != nil && c.pick(nil) == last {
			// Sole surviving worker: retrying it beats skipping straight
			// to the fallback.
			ws = last
		}
		if ws == nil {
			break
		}
		if attempt > 0 {
			c.retries.Add(1)
			if !c.sleepBackoff(ctx, attempt) {
				msgs <- shardMsg{err: ctx.Err()}
				return
			}
		}
		total, err := c.attemptWithHedge(ctx, shard, body, ws, msgs)
		if err == nil {
			msgs <- shardMsg{done: true, total: total}
			return
		}
		lastErr = err
		last = ws
		if ctx.Err() != nil {
			msgs <- shardMsg{err: ctx.Err()}
			return
		}
		c.opts.Logger.Warn("cluster: shard attempt failed",
			"shard", shard.Index, "worker", ws.w.Name(), "attempt", attempt+1, "error", err)
	}
	// Remote attempts exhausted (or no worker was ever available):
	// evaluate the shard in-process so the sweep still completes.
	c.localFallbacks.Add(1)
	if lastErr != nil {
		c.opts.Logger.Warn("cluster: shard falling back to local evaluation",
			"shard", shard.Index, "error", lastErr)
	}
	total, err := job.Local(ctx, shard, func(r Report) error {
		rc := r
		msgs <- shardMsg{report: &rc}
		return ctx.Err()
	})
	if err != nil {
		msgs <- shardMsg{err: err}
		return
	}
	msgs <- shardMsg{done: true, total: total}
}

// sleepBackoff sleeps the full-jitter exponential backoff for the
// given retry attempt, returning false when ctx ended first.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) bool {
	upper := c.opts.BackoffCap
	if shifted := c.opts.BackoffBase << (attempt - 1); shifted > 0 && shifted < upper {
		upper = shifted
	}
	t := time.NewTimer(randv2.N(upper))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attemptResult is one attempt's outcome inside attemptWithHedge.
type attemptResult struct {
	total int
	err   error
	ws    *workerState
}

// attemptWithHedge runs the shard on ws and, if it straggles past
// HedgeAfter, dispatches a duplicate to a second worker — first
// success wins and cancels the other. It returns once every attempt
// goroutine it started has finished, so callers may assume nothing
// still writes to msgs afterwards.
func (c *Coordinator) attemptWithHedge(ctx context.Context, shard Shard, body []byte, ws *workerState, msgs chan<- shardMsg) (int, error) {
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	resc := make(chan attemptResult, 2)
	launch := func(ws *workerState) {
		go func() {
			total, err := c.attempt(actx, shard, body, ws, msgs)
			resc <- attemptResult{total: total, err: err, ws: ws}
		}()
	}
	launch(ws)
	launched := 1

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 && len(c.workers) > 1 {
		ht := time.NewTimer(c.opts.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}

	var firstErr error
	success := false
	best := attemptResult{err: fmt.Errorf("cluster: shard %d/%d: no attempt ran", shard.Index, shard.Count)}
	for done := 0; done < launched; {
		select {
		case r := <-resc:
			done++
			if r.err == nil {
				if !success {
					success = true
					best = r
				}
				acancel() // first success: stop the losing attempt
			} else if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeC:
			hedgeC = nil
			if h := c.pick(ws); h != nil {
				c.hedges.Add(1)
				c.opts.Logger.Info("cluster: hedging straggler shard",
					"shard", shard.Index, "worker", ws.w.Name(), "hedge", h.w.Name())
				launch(h)
				launched++
			}
		}
	}
	if success {
		return best.total, nil
	}
	return 0, firstErr
}

// attempt runs one remote shard attempt on one worker, under the
// per-shard timeout, feeding the circuit breaker with the outcome.
func (c *Coordinator) attempt(ctx context.Context, shard Shard, body []byte, ws *workerState, msgs chan<- shardMsg) (total int, err error) {
	ctx, sp := trace.Start(ctx, "cluster.shard",
		trace.Attr{Key: "shard", Value: shard.Index},
		trace.Attr{Key: "worker", Value: ws.w.Name()})
	defer func() { sp.EndErr(err) }()
	ctx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
	defer cancel()

	c.dispatches.Add(1)
	ws.mu.Lock()
	ws.inflight++
	ws.mu.Unlock()
	defer func() {
		ws.mu.Lock()
		ws.inflight--
		ws.mu.Unlock()
		if err != nil {
			ws.fail(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
		} else {
			ws.succeed()
		}
	}()

	if err := c.opts.Chaos.HitCtx(ctx, ChaosSiteDispatch); err != nil {
		return 0, err
	}
	return ws.w.RunShard(ctx, body, func(r Report) error {
		rc := r
		msgs <- shardMsg{report: &rc}
		return ctx.Err()
	})
}
