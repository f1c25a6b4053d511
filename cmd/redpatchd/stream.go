package main

// The NDJSON stream plumbing the sweep, cluster, rollout and fleet
// simulation streams share: compact one-object-per-line framing, and the
// periodic {"progress":true,...} event. The rollout, fleet-simulation
// and cluster streams flush line by line; the local sweep stream writes
// its lines unflushed and flushes only when the engine is about to wait
// on a solve, and with its trailer.

import (
	"encoding/json"
	"net/http"
	"time"

	"redpatch"
)

// ndjsonStream writes one JSON object per line. A stream's callbacks
// run on one collector goroutine, so it needs no locking.
type ndjsonStream struct {
	enc *json.Encoder
	rc  *http.ResponseController
}

// newNDJSONStream sets the NDJSON response headers and wraps w.
func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch the stream
	return &ndjsonStream{enc: json.NewEncoder(w), rc: http.NewResponseController(w)}
}

// write encodes v as one compact line into the response buffer, which
// goes out when it fills or at the next flush.
func (s *ndjsonStream) write(v any) error { return s.enc.Encode(v) }

// flush sends the buffered lines to the client (a writer that cannot
// flush just buffers).
func (s *ndjsonStream) flush() { _ = s.rc.Flush() }

// line writes v and flushes it.
func (s *ndjsonStream) line(v any) error {
	if err := s.write(v); err != nil {
		return err
	}
	s.flush()
	return nil
}

// progress returns the stream's progress callback: at most one
// {"progress":true,...} event per progressEvery, none before the first
// or after the last item, carrying done/total, the cache-hit ratio and
// an ETA, handed to send (the stream's write or line). The ratio is
// computed from the counter delta since the stream began — counters
// picks the hit and solve counters the stream's cache feeds — so it
// describes this stream, not the lifetime totals.
func (s *server) progress(send func(any) error, sc *scenario, counters func(redpatch.EngineStats) (hits, solves uint64)) func(done, total int) {
	hits0, solves0 := counters(sc.study.EngineStats())
	start := time.Now()
	lastProgress := start
	return func(done, total int) {
		if done <= 0 || done >= total || time.Since(lastProgress) < s.progressEvery {
			return
		}
		lastProgress = time.Now()
		hits, solves := counters(sc.study.EngineStats())
		hits -= hits0
		ratio := 0.0
		if looked := hits + solves - solves0; looked > 0 {
			ratio = float64(hits) / float64(looked)
		}
		elapsed := time.Since(start)
		eta := elapsed.Seconds() / float64(done) * float64(total-done)
		_ = send(map[string]any{
			"progress":      true,
			"done":          done,
			"total":         total,
			"cacheHitRatio": ratio,
			"etaSeconds":    eta,
		})
	}
}

// designCounters and rolloutCounters feed the progress ratio from the
// design memo and the rollout memo (where points whose fractions ceil
// to already-solved patched counts are hits).
func designCounters(st redpatch.EngineStats) (uint64, uint64) { return st.Hits, st.Solves }

func rolloutCounters(st redpatch.EngineStats) (uint64, uint64) {
	return st.RolloutHits, st.RolloutSolves
}
