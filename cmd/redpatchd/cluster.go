package main

// Coordinator-mode wiring: with -cluster-workers the daemon shards
// every /api/v2/sweep/stream request across a fleet of redpatchd
// worker processes through internal/cluster, streaming the deduplicated
// union of their NDJSON report lines to the client byte-identical to a
// single-process run. Workers are ordinary redpatchd processes started
// with -worker; the RPC is the public v2 sweep protocol itself (with
// the request's shard field set), so there is no second wire format to
// version or secure. Scenarios other than the default must be
// registered on the workers too — a worker that does not know the
// scenario fails its shards, which the coordinator retries and finally
// evaluates locally, so the sweep still completes correctly.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"redpatch"

	"redpatch/internal/cluster"
	"redpatch/internal/faultinject"
	"redpatch/internal/metrics"
)

// clusterConfig configures coordinator mode; an empty worker list
// disables it. Zero values select internal/cluster's defaults.
type clusterConfig struct {
	workers          []string // worker base URLs; empty = no coordinator
	shards           int      // shards per sweep; 0 selects 4 per worker
	shardTimeout     time.Duration
	shardAttempts    int
	hedgeAfter       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	probeInterval    time.Duration
}

// newCoordinator builds the coordinator (nil without workers) and the
// per-sweep shard count.
func newCoordinator(cfg serverConfig) (*cluster.Coordinator, int) {
	n := len(cfg.cluster.workers)
	if n == 0 {
		return nil, 0
	}
	ws := make([]cluster.Worker, n)
	for i, addr := range cfg.cluster.workers {
		ws[i] = cluster.NewHTTPWorker(addr, nil)
	}
	shards := cfg.cluster.shards
	if shards < 1 {
		shards = 4 * n
	}
	return cluster.New(ws, cluster.Options{
		ShardTimeout:     cfg.cluster.shardTimeout,
		MaxAttempts:      cfg.cluster.shardAttempts,
		HedgeAfter:       cfg.cluster.hedgeAfter,
		BreakerThreshold: cfg.cluster.breakerThreshold,
		BreakerCooldown:  cfg.cluster.breakerCooldown,
		ProbeInterval:    cfg.cluster.probeInterval,
		Chaos:            cfg.chaos,
		Logger:           cfg.logger,
	}), shards
}

// streamClusterSweep is handleSweepStream's coordinator path: shard
// the request across the worker fleet and forward the deduplicated
// report lines verbatim. Progress events derive from shard
// completions; the trailer is built by the same helper as the local
// path, so a distributed sweep's final line is byte-identical to a
// single process evaluating the same space.
func (s *server) streamClusterSweep(w http.ResponseWriter, r *http.Request, sc *scenario, req redpatch.SpecSweepRequest) {
	out := newNDJSONStream(w)

	space := req.SweepSize()
	shards := s.clusterShards
	if shards > space {
		shards = space // never dispatch empty shards
	}
	if shards < 1 {
		shards = 1
	}

	job := cluster.Job{
		// The worker RPC body is the client's own request with the
		// shard field set — each copy is private to its shard.
		Body: func(sh cluster.Shard) ([]byte, error) {
			wr := req
			wr.Shard = &redpatch.SweepShard{Index: sh.Index, Count: sh.Count}
			return json.Marshal(sweepV2Request{Scenario: sc.name, SpecSweepRequest: wr})
		},
		// Graceful degradation: evaluate the shard on this process's
		// own engine, rendering lines exactly as the local stream does.
		Local: func(ctx context.Context, sh cluster.Shard, emit func(cluster.Report) error) (int, error) {
			lr := req
			if sh.Count > 1 {
				lr.Shard = &redpatch.SweepShard{Index: sh.Index, Count: sh.Count}
			}
			return sc.study.SweepSpecEach(ctx, lr, func(rep redpatch.DesignReport) error {
				line, err := json.Marshal(rep)
				if err != nil {
					return err
				}
				return emit(cluster.Report{Key: rep.Spec.Key(), Line: line})
			})
		},
	}

	// Every line goes out verbatim and is parsed back into a report for
	// the trailer's front, which is all the stream keeps. Go's float
	// round-trip is exact, so parse+re-marshal cannot drift from what a
	// local evaluation would have produced.
	front := redpatch.NewDesignFront()
	emit := func(rep cluster.Report) error {
		var dr redpatch.DesignReport
		if err := json.Unmarshal(rep.Line, &dr); err != nil {
			return fmt.Errorf("cluster: undecodable report line: %w", err)
		}
		front.Add(dr)
		if _, err := w.Write(rep.Line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
		_ = out.rc.Flush() // as in line: a non-flushing writer just buffers
		return nil
	}

	// Progress carries the same fields as the local stream; done counts
	// designs in completed shards, and the cache-hit ratio covers only
	// this process's engine (shards running remotely hit the workers'
	// caches, which /metrics on each worker reports).
	progress := s.progress(out.line, sc, designCounters)
	total, kept, err := s.coord.Sweep(r.Context(), job, shards, emit,
		func(done int) { progress(done, space) })
	if err != nil {
		_ = out.line(streamErrorTrailer(err))
		return
	}
	_ = out.line(sweepTrailer(sc.name, total, kept, front))
}

// registerClusterCollectors wires the scrape-time collectors over the
// coordinator's live stats; called from registerCollectors when
// coordinator mode is on.
func (m *serverMetrics) registerClusterCollectors(s *server) {
	stat := func(get func(cluster.Stats) uint64) func() float64 {
		return func() float64 { return float64(get(s.coord.Stats())) }
	}
	m.reg.NewCounterFunc("redpatchd_cluster_dispatches_total",
		"Remote shard attempts started.",
		stat(func(st cluster.Stats) uint64 { return st.Dispatches }))
	m.reg.NewCounterFunc("redpatchd_cluster_retries_total",
		"Shard attempts beyond a shard's first (reassignments after failures).",
		stat(func(st cluster.Stats) uint64 { return st.Retries }))
	m.reg.NewCounterFunc("redpatchd_cluster_hedges_total",
		"Duplicate straggler dispatches (first result wins).",
		stat(func(st cluster.Stats) uint64 { return st.Hedges }))
	m.reg.NewCounterFunc("redpatchd_cluster_local_fallbacks_total",
		"Shards (or whole sweeps) evaluated locally after remote attempts were exhausted or no worker was available.",
		stat(func(st cluster.Stats) uint64 { return st.LocalFallbacks }))
	m.reg.NewCounterFunc("redpatchd_cluster_shards_done_total",
		"Shards completed over any path.",
		stat(func(st cluster.Stats) uint64 { return st.ShardsDone }))
	perWorker := func(get func(cluster.WorkerStatus) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			st := s.coord.Stats()
			out := make([]metrics.Sample, len(st.Workers))
			for i, w := range st.Workers {
				out[i] = metrics.Sample{Labels: []string{w.Name}, Value: get(w)}
			}
			return out
		}
	}
	m.reg.NewGaugeVecFunc("redpatchd_cluster_worker_circuit_open",
		"1 while the worker's circuit breaker excludes it from dispatch.",
		[]string{"worker"}, perWorker(func(w cluster.WorkerStatus) float64 {
			if w.Open {
				return 1
			}
			return 0
		}))
	m.reg.NewGaugeVecFunc("redpatchd_cluster_worker_inflight_shards",
		"Shard attempts currently running on the worker.",
		[]string{"worker"}, perWorker(func(w cluster.WorkerStatus) float64 { return float64(w.Inflight) }))
	m.reg.NewCounterVecFunc("redpatchd_cluster_worker_successes_total",
		"Successful shard attempts and health probes, by worker.",
		[]string{"worker"}, perWorker(func(w cluster.WorkerStatus) float64 { return float64(w.Successes) }))
	m.reg.NewCounterVecFunc("redpatchd_cluster_worker_failures_total",
		"Failed shard attempts and health probes, by worker.",
		[]string{"worker"}, perWorker(func(w cluster.WorkerStatus) float64 { return float64(w.Failures) }))
}

// chaosSiteSpec is one parsed -chaos-site flag value.
type chaosSiteSpec struct {
	name string
	site faultinject.Site
}

// parseChaosSite parses NAME,ERRPROB,LATENCYPROB,LATENCYMS,PANICPROB.
func parseChaosSite(v string) (chaosSiteSpec, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 5 || strings.TrimSpace(parts[0]) == "" {
		return chaosSiteSpec{}, fmt.Errorf("-chaos-site %q: want NAME,ERRPROB,LATENCYPROB,LATENCYMS,PANICPROB", v)
	}
	nums := make([]float64, 4)
	for i, p := range parts[1:] {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f < 0 {
			return chaosSiteSpec{}, fmt.Errorf("-chaos-site %q: field %d: want a non-negative number", v, i+2)
		}
		nums[i] = f
	}
	return chaosSiteSpec{
		name: strings.TrimSpace(parts[0]),
		site: faultinject.Site{
			ErrProb:     nums[0],
			LatencyProb: nums[1],
			Latency:     time.Duration(nums[2] * float64(time.Millisecond)),
			PanicProb:   nums[3],
		},
	}, nil
}

// splitWorkers parses the -cluster-workers list.
func splitWorkers(v string) []string {
	var out []string
	for _, w := range strings.Split(v, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}
