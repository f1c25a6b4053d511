package main

// Flush policy of the local sweep stream: lines are flushed when the
// server is about to wait on a solve and with the trailer, not per line.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"redpatch"

	"redpatch/internal/faultinject"
)

// sweep256 is the 256-design maxPerTier-4 space as a v2 sweep body.
const sweep256 = `{"tiers":[
	{"role":"dns","min":1,"max":4},
	{"role":"web","min":1,"max":4},
	{"role":"app","min":1,"max":4},
	{"role":"db","min":1,"max":4}]}`

// oneFastThenStuck returns an injector whose evaluate site lets the
// first solve through and holds the second for a minute (or until the
// request is cancelled): a latency probability of one half under a
// seed whose first two draws are "no delay, delay". The draw sequence
// is a pure function of the seed, so the probe picks the same seed on
// every run.
func oneFastThenStuck(t *testing.T) *faultinject.Injector {
	t.Helper()
	site := faultinject.Site{LatencyProb: 0.5, Latency: time.Nanosecond}
	for seed := int64(1); seed < 1000; seed++ {
		probe := faultinject.New(seed)
		probe.Configure(redpatch.ChaosSiteEvaluate, site)
		_ = probe.Hit(redpatch.ChaosSiteEvaluate)
		first := probe.Counts(redpatch.ChaosSiteEvaluate).Delays
		_ = probe.Hit(redpatch.ChaosSiteEvaluate)
		if first == 0 && probe.Counts(redpatch.ChaosSiteEvaluate).Delays == 1 {
			inj := faultinject.New(seed)
			inj.Configure(redpatch.ChaosSiteEvaluate, faultinject.Site{LatencyProb: 0.5, Latency: time.Minute})
			return inj
		}
	}
	t.Fatal("no seed draws no-delay then delay")
	return nil
}

// TestSweepStreamFlushesBeforeWaiting: on a cold two-design sweep whose
// second solve is held, the client reads the first design's line while
// that solve is still blocked — the stream flushed before the server
// started waiting on it, not only with the trailer.
func TestSweepStreamFlushesBeforeWaiting(t *testing.T) {
	inj := oneFastThenStuck(t)
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"tiers":[{"role":"web","min":1,"max":2}]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v2/sweep/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Headers and the first line both arrive only once the server
	// flushes, so the whole exchange runs under the deadline.
	type read struct {
		line string
		err  error
	}
	got := make(chan read, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			got <- read{err: err}
			return
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		got <- read{line, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("reading the first line: %v", r.err)
		}
		var rep redpatch.DesignReport
		if err := json.Unmarshal([]byte(r.line), &rep); err != nil || rep.Name == "" {
			t.Fatalf("first line is not a design report: %q (%v)", r.line, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first design line not delivered while the second solve was held")
	}
	waitCond(t, "the second solve to be held", func() bool {
		c := inj.Counts(redpatch.ChaosSiteEvaluate)
		return c.Hits == 2 && c.Delays == 1
	})
	cancel() // releases the held solve
}

// flushCounter is a ResponseWriter that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestWarmSweepStreamBatchesFlushes: a fully warm 256-design stream
// never waits on a solve, so it goes out with (far) fewer flushes than
// lines, and every line still arrives.
func TestWarmSweepStreamBatchesFlushes(t *testing.T) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := mustServer(t, study, serverConfig{}).handler()
	if w := do(t, h, http.MethodPost, "/api/v2/sweep/stream", sweep256); w.Code != http.StatusOK {
		t.Fatalf("warm-up status = %d: %s", w.Code, w.Body)
	}

	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream", strings.NewReader(sweep256)))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	lines := ndjsonLines(t, w.Body.String())
	if len(lines) != 257 || !strings.HasPrefix(lines[256], `{"done":true`) {
		t.Fatalf("got %d lines ending %q, want 256 reports and a done trailer", len(lines), lines[len(lines)-1])
	}
	if w.flushes >= 256/8 {
		t.Fatalf("warm stream flushed %d times for 256 designs, want fewer than %d", w.flushes, 256/8)
	}
}
