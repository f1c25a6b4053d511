package main

// The four workloads. Each is a closed loop: a client sends its next
// operation only after the previous one has completed, because every
// caller of redpatchd waits for its reply.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"redpatch"
	"redpatch/internal/fleet"
)

// opResult is one completed operation as the client saw it.
type opResult struct {
	latency time.Duration
	first   time.Duration // time to the first design line, or to the response headers
	designs int           // designs (or fleet systems) the operation returned
	// streamTime is the wall time those designs took to arrive: the
	// sweep stream of a policy-cold cycle, the whole request otherwise.
	streamTime time.Duration
	bytes      int64
	// counters are per-scenario engine counters of a policy-cold cycle,
	// read before its scenario is deleted.
	counters map[string]float64
	traced   bool // the operation's spans were recorded
	err      error
}

// workload is one traffic mix. prime runs during set-up, op in the
// timed window, and finish after it, checking answers kept for later.
type workload interface {
	clients() int
	// tail is the latency percentile reported as tail_ms; it is the
	// highest of 50/75/90/99/99.9 that keeps at least ten samples beyond
	// it at the operation rate the workload sustains.
	tail() float64
	// routes are the daemon routes an operation calls, for the traced
	// run's server-time split.
	routes() []string
	prime(d *daemon, c *http.Client) error
	op(d *daemon, c *http.Client, rng *rand.Rand, seq int, sp *span) opResult
	// finish re-checks answers recorded during the run and returns one
	// error per wrong answer.
	finish(d *daemon, c *http.Client) []error
}

// pipeliner is a workload whose untraced window pipelines requests on
// each of its clients' connections instead of sending one at a time.
type pipeliner interface {
	pipeline(d *daemon, rng *rand.Rand, deadline time.Time) []opResult
}

// warmer is a workload whose timed operations read caches that its
// set-up does not fill; warm runs after set-up is timed, before the
// window.
type warmer interface {
	warm(d *daemon, c *http.Client) error
}

func newWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "evaluate-warm":
		return newEvaluateWarm(rng), nil
	case "policy-cold":
		return &policyCold{seed: seed}, nil
	case "sweep-warm":
		return newSweepWarm(rng), nil
	case "fleet-plan":
		return newFleetPlan(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloadNames = []string{"evaluate-warm", "policy-cold", "sweep-warm", "fleet-plan"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are marshalled
	}
	return b
}

// --- evaluate-warm -------------------------------------------------------

// evaluateWarm sends POST /api/v2/evaluate over a pool of distinct specs,
// each evaluated once during set-up, so every timed answer is a memo hit.
type evaluateWarm struct {
	pool   []redpatch.DesignSpec
	bodies [][]byte
	want   [][]byte // set-up answers; a warm answer must match byte for byte
}

func newEvaluateWarm(rng *rand.Rand) *evaluateWarm {
	w := &evaluateWarm{pool: evalPool(rng)}
	for _, s := range w.pool {
		w.bodies = append(w.bodies, mustJSON(map[string]any{"spec": s}))
	}
	return w
}

func (w *evaluateWarm) clients() int     { return 2 }
func (w *evaluateWarm) tail() float64    { return 99.9 }
func (w *evaluateWarm) routes() []string { return []string{"POST /api/v2/evaluate"} }

func (w *evaluateWarm) prime(d *daemon, c *http.Client) error {
	w.want = make([][]byte, len(w.pool))
	for i, b := range w.bodies {
		x, err := call(c, http.MethodPost, d.base+"/api/v2/evaluate", b)
		if err != nil {
			return err
		}
		if x.status != http.StatusOK {
			return fmt.Errorf("prime evaluate %s: status %d: %s", w.pool[i].Key(), x.status, x.body)
		}
		w.want[i] = x.body
	}
	return nil
}

func (w *evaluateWarm) op(d *daemon, c *http.Client, rng *rand.Rand, _ int, sp *span) opResult {
	i := rng.Intn(len(w.pool))
	cs := sp.child("net:POST /api/v2/evaluate")
	x, err := call(c, http.MethodPost, d.base+"/api/v2/evaluate", w.bodies[i])
	cs.end()
	r := opResult{latency: x.total, first: x.first, designs: 1, streamTime: x.total, bytes: x.bytes, err: err}
	if err == nil && (x.status != http.StatusOK || !bytes.Equal(x.body, w.want[i])) {
		r.err = fmt.Errorf("evaluate %s: status %d, answer differs from the set-up answer", w.pool[i].Key(), x.status)
	}
	return r
}

// evalDepth is how many requests each evaluate-warm connection keeps in
// flight in the untraced window. With one request per connection the
// daemon idles while the load process turns each answer around, and the
// cost of waking it again, which depends on how fast the shared machine
// runs the load process, made up much of its CPU time per operation:
// that figure moved with the throughput by up to a third between runs. With
// requests queued on the connection the daemon serves them back to back.
const evalDepth = 16

func (w *evaluateWarm) pipeline(d *daemon, rng *rand.Rand, deadline time.Time) []opResult {
	return pipelined(d.base, "/api/v2/evaluate", w.bodies, evalDepth, rng, deadline, func(i, status int, body []byte) error {
		if status != http.StatusOK || !bytes.Equal(body, w.want[i]) {
			return fmt.Errorf("evaluate %s: status %d, answer differs from the set-up answer", w.pool[i].Key(), status)
		}
		return nil
	})
}

// evaluateAnswer is the part of an evaluate reply the checks read.
type evaluateAnswer struct {
	Report redpatch.DesignReport `json:"report"`
}

func (w *evaluateWarm) finish(*daemon, *http.Client) []error {
	var errs []error
	for i, body := range w.want {
		var a evaluateAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			errs = append(errs, fmt.Errorf("evaluate %s: %w", w.pool[i].Key(), err))
			continue
		}
		r := a.Report
		switch {
		case r.Spec.Key() != w.pool[i].Key():
			errs = append(errs, fmt.Errorf("evaluate %s answered for %s", w.pool[i].Key(), r.Spec.Key()))
		case !(r.COA > 0 && r.COA <= 1) || r.After.ASP > r.Before.ASP || r.After.ASP < 0:
			errs = append(errs, fmt.Errorf("evaluate %s: COA %v, ASP %v -> %v out of range", r.Spec.Key(), r.COA, r.Before.ASP, r.After.ASP))
		}
	}
	if errs == nil {
		errs = checkBaseDesign(w.want[0])
	}
	return errs
}

// checkBaseDesign holds the base design's answer to the paper: COA
// 0.99707 (Table VI) and after-patch ASP 0.2344 (Table II).
func checkBaseDesign(body []byte) []error {
	var a evaluateAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return []error{fmt.Errorf("base design: %w", err)}
	}
	if math.Abs(a.Report.COA-0.99707) > 5e-5 || math.Abs(a.Report.After.ASP-0.2344) > 5e-4 {
		return []error{fmt.Errorf("base design (1,2,2,1): COA %.5f, after-patch ASP %.4f; the paper has 0.99707 and 0.2344",
			a.Report.COA, a.Report.After.ASP)}
	}
	return nil
}

// --- sweep streams -------------------------------------------------------

// streamLine is the part of a sweep NDJSON line the checks read: a
// design report, a progress event, or the done or error trailer.
type streamLine struct {
	Spec     *redpatch.DesignSpec `json:"Spec"`
	Progress bool                 `json:"progress"`
	Done     bool                 `json:"done"`
	Total    int                  `json:"total"`
	Error    string               `json:"error"`
}

// spaceKeys enumerates the design keys of a homogeneous box sweep.
func spaceKeys(req redpatch.SpecSweepRequest) map[string]bool {
	keys := map[string]bool{}
	var rec func(i int, tiers []redpatch.TierSpec)
	rec = func(i int, tiers []redpatch.TierSpec) {
		if i == len(req.Tiers) {
			keys[redpatch.DesignSpec{Tiers: tiers}.Key()] = true
			return
		}
		t := req.Tiers[i]
		for n := t.Min; n <= t.Max; n++ {
			rec(i+1, append(tiers[:i:i], redpatch.TierSpec{Role: t.Role, Replicas: n}))
		}
	}
	rec(0, nil)
	return keys
}

// sweepCheck reads one sweep stream: every design key of the space
// exactly once, then a done trailer whose total equals both.
type sweepCheck struct {
	space   map[string]bool
	seen    map[string]bool
	trailer []byte
}

func newSweepCheck(space map[string]bool) *sweepCheck {
	return &sweepCheck{space: space, seen: make(map[string]bool, len(space))}
}

func (s *sweepCheck) line(b []byte) error {
	if s.trailer != nil {
		return errors.New("line after the done trailer")
	}
	var l streamLine
	if err := json.Unmarshal(b, &l); err != nil {
		return err
	}
	switch {
	case l.Error != "":
		return fmt.Errorf("stream error trailer: %s", l.Error)
	case l.Progress:
	case l.Done:
		s.trailer = append([]byte(nil), b...)
		if l.Total != len(s.seen) || l.Total != len(s.space) {
			return fmt.Errorf("trailer total %d, %d designs read, space of %d", l.Total, len(s.seen), len(s.space))
		}
	case l.Spec == nil:
		return fmt.Errorf("unexpected line %.80s", b)
	default:
		k := l.Spec.Key()
		if !s.space[k] || s.seen[k] {
			return fmt.Errorf("design %s outside the space or repeated", k)
		}
		s.seen[k] = true
	}
	return nil
}

func (s *sweepCheck) done() error {
	if s.trailer == nil {
		return errors.New("stream ended without a done trailer")
	}
	return nil
}

// --- policy-cold ---------------------------------------------------------

// policyCold registers a fresh scenario per operation, sweeps a 625-design
// space on its empty caches, runs rollout sweeps, and deletes it: the
// write side of every memo the warm workloads only read.
type policyCold struct {
	seed int64
	// checked holds the first cycles' inputs and cold trailers for the
	// cold-equals-warm check after the window. The workload's one client
	// writes it; finish reads it after that client has stopped.
	checked []coldRecord
}

type coldRecord struct {
	name    string // the trailer names the scenario, so a replay reuses it
	cycle   coldCycle
	trailer []byte
}

const coldRecorded = 2

func (w *policyCold) clients() int  { return 1 }
func (w *policyCold) tail() float64 { return 90 }
func (w *policyCold) routes() []string {
	return []string{"POST /api/v2/scenarios", "POST /api/v2/sweep/stream", "POST /api/v2/rollout/sweep", "DELETE /api/v2/scenarios/{name}"}
}
func (w *policyCold) prime(*daemon, *http.Client) error { return nil }

// cycle derives cycle seq's inputs from the run seed alone, so they do
// not depend on how many cycles a run completes.
func (w *policyCold) cycle(seq int) coldCycle {
	return drawCycle(rand.New(rand.NewSource(w.seed*1_000_003 + int64(seq))))
}

func (w *policyCold) op(d *daemon, c *http.Client, _ *rand.Rand, seq int, sp *span) opResult {
	cy := w.cycle(seq)
	name := fmt.Sprintf("pc%d", seq)
	var r opResult
	t0 := time.Now()
	var untimed time.Duration
	fail := func(err error) opResult {
		r.latency = time.Since(t0) - untimed
		r.err = err
		_, _ = call(c, http.MethodDelete, d.base+"/api/v2/scenarios/"+name, nil) // best-effort cleanup
		return r
	}

	cs := sp.child("net:POST /api/v2/scenarios")
	x, err := call(c, http.MethodPost, d.base+"/api/v2/scenarios", mustJSON(map[string]any{"name": name, "config": cy.policy}))
	cs.end()
	r.bytes += x.bytes
	if err == nil && x.status != http.StatusCreated {
		err = fmt.Errorf("create scenario: status %d: %s", x.status, x.body)
	}
	if err != nil {
		return fail(err)
	}

	chk := newSweepCheck(spaceKeys(cy.sweep))
	body := mustJSON(struct {
		Scenario string `json:"scenario"`
		redpatch.SpecSweepRequest
	}{name, cy.sweep})
	cs = sp.child("net:POST /api/v2/sweep/stream")
	x, err = stream(c, d.base+"/api/v2/sweep/stream", body, chk.line)
	cs.end()
	r.bytes += x.bytes
	r.first, r.streamTime, r.designs = x.first, x.total, len(chk.seen)
	if err == nil {
		err = chk.done()
	}
	if err != nil {
		return fail(fmt.Errorf("cold sweep: %w", err))
	}
	if seq < coldRecorded {
		w.checked = append(w.checked, coldRecord{name, cy, chk.trailer})
	}

	for i, spec := range cy.designs {
		points, err := cy.schedule[i].Points(len(spec.Tiers))
		if err != nil {
			return fail(err)
		}
		lines, total := 0, -1
		cs = sp.child("net:POST /api/v2/rollout/sweep")
		x, err = stream(c, d.base+"/api/v2/rollout/sweep", mustJSON(map[string]any{
			"scenario": name, "spec": spec, "schedule": cy.schedule[i],
		}), func(b []byte) error {
			var l streamLine
			if err := json.Unmarshal(b, &l); err != nil {
				return err
			}
			switch {
			case l.Error != "":
				return fmt.Errorf("rollout error trailer: %s", l.Error)
			case l.Done:
				total = l.Total
			case !l.Progress:
				lines++
			}
			return nil
		})
		cs.end()
		r.bytes += x.bytes
		if err == nil && (total != len(points) || lines != total) {
			err = fmt.Errorf("rollout %s: %d points read, trailer total %d, schedule has %d", spec.Key(), lines, total, len(points))
		}
		if err != nil {
			return fail(err)
		}
	}

	// Every design of a homogeneous space shares one variant structure,
	// so the whole cycle builds exactly one security model. The scrape is
	// excluded from the operation's latency.
	tm := time.Now()
	m, err := scrape(c, d.base)
	untimed += time.Since(tm)
	if err != nil {
		return fail(err)
	}
	if n := m.engine("security_solves_total", name); n != 1 {
		return fail(fmt.Errorf("cold homogeneous sweep built %v security models, want 1", n))
	}
	r.counters = map[string]float64{}
	for _, k := range engineCounters {
		r.counters[k] = m.engine(k, name)
	}

	cs = sp.child("net:DELETE /api/v2/scenarios/{name}")
	x, err = call(c, http.MethodDelete, d.base+"/api/v2/scenarios/"+name, nil)
	cs.end()
	r.latency = time.Since(t0) - untimed
	if err == nil && x.status != http.StatusNoContent {
		err = fmt.Errorf("delete scenario: status %d", x.status)
	}
	r.err = err
	return r
}

// finish replays the first cycles on a re-created scenario: the same
// space swept cold and then warm must end in the trailer the timed cycle
// got.
func (w *policyCold) finish(d *daemon, c *http.Client) []error {
	var errs []error
	for i, rec := range w.checked {
		name := rec.name
		x, err := call(c, http.MethodPost, d.base+"/api/v2/scenarios", mustJSON(map[string]any{"name": name, "config": rec.cycle.policy}))
		if err == nil && x.status != http.StatusCreated {
			err = fmt.Errorf("status %d", x.status)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("check scenario: %w", err))
			continue
		}
		body := mustJSON(struct {
			Scenario string `json:"scenario"`
			redpatch.SpecSweepRequest
		}{name, rec.cycle.sweep})
		for _, pass := range []string{"cold", "warm"} {
			chk := newSweepCheck(spaceKeys(rec.cycle.sweep))
			_, err := stream(c, d.base+"/api/v2/sweep/stream", body, chk.line)
			if err == nil {
				err = chk.done()
			}
			if err == nil && !bytes.Equal(chk.trailer, rec.trailer) {
				err = errors.New("trailer differs from the timed cold sweep's")
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s replay of cycle %d: %w", pass, i, err))
			}
		}
		_, _ = call(c, http.MethodDelete, d.base+"/api/v2/scenarios/"+name, nil)
	}
	return errs
}

// --- sweep-warm ----------------------------------------------------------

// sweepWarm streams one seeded 4096-design space again and again after
// set-up has swept it once, so every design is an engine hit.
type sweepWarm struct {
	req   redpatch.SpecSweepRequest
	body  []byte
	space map[string]bool
	// lines maps a hash of each design line of the set-up (cold) stream
	// to its count; a warm stream must repeat those lines exactly.
	lines   map[uint64]int
	trailer []byte
}

func newSweepWarm(rng *rand.Rand) *sweepWarm {
	req := boxSweep(rng, warmPerTier)
	// The trailer's Pareto scan costs 13 to 26 ms on a space with single
	// DNS server designs and 2 to 8 ms without them; every seed's space
	// starts its DNS range at 1, so the seed does not decide whether that
	// hot spot is measured.
	req.Tiers[0].Min, req.Tiers[0].Max = 1, warmPerTier
	return &sweepWarm{req: req, body: mustJSON(req), space: spaceKeys(req)}
}

func (w *sweepWarm) clients() int     { return 1 }
func (w *sweepWarm) tail() float64    { return 75 }
func (w *sweepWarm) routes() []string { return []string{"POST /api/v2/sweep/stream"} }

func lineHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (w *sweepWarm) prime(d *daemon, c *http.Client) error {
	chk := newSweepCheck(w.space)
	w.lines = make(map[uint64]int, len(w.space))
	_, err := stream(c, d.base+"/api/v2/sweep/stream", w.body, func(b []byte) error {
		if err := chk.line(b); err != nil {
			return err
		}
		if chk.trailer == nil {
			w.lines[lineHash(b)]++
		}
		return nil
	})
	if err == nil {
		err = chk.done()
	}
	if err != nil {
		return fmt.Errorf("prime sweep: %w", err)
	}
	w.trailer = chk.trailer
	return nil
}

func (w *sweepWarm) op(d *daemon, c *http.Client, _ *rand.Rand, _ int, sp *span) opResult {
	seen := make(map[uint64]int, len(w.lines))
	var trailer []byte
	n := 0
	cs := sp.child("net:POST /api/v2/sweep/stream")
	x, err := stream(c, d.base+"/api/v2/sweep/stream", w.body, func(b []byte) error {
		h := lineHash(b)
		if want := w.lines[h]; want > seen[h] {
			seen[h]++
			n++
			return nil
		}
		switch {
		case bytes.HasPrefix(b, []byte(`{"done":true`)):
			trailer = append([]byte(nil), b...)
			return nil
		case bytes.Contains(b, []byte(`"progress":true`)):
			return nil // emitted only when a sweep outlives the progress interval
		}
		return fmt.Errorf("warm line not in the cold stream: %.80s", b)
	})
	cs.end()
	r := opResult{latency: x.total, first: x.first, designs: n, streamTime: x.total, bytes: x.bytes, err: err}
	if err == nil && (n != len(w.space) || !bytes.Equal(trailer, w.trailer)) {
		r.err = fmt.Errorf("warm sweep: %d of %d designs, trailer equal to the cold one: %v", n, len(w.space), bytes.Equal(trailer, w.trailer))
	}
	return r
}

func (w *sweepWarm) finish(*daemon, *http.Client) []error { return nil }

// --- fleet-plan ----------------------------------------------------------

// fleetPlan plans a registered 1000-system fleet under a per-request
// concurrency cap; the largest response redpatchd serves.
type fleetPlan struct {
	systems  []fleet.System
	caps     []int // maxConcurrent of operation seq is caps[seq%len(caps)]
	register []byte
	// want holds, per cap, the CRC of the set-up plan, which finish
	// checks for coverage; a timed plan with another CRC is checked in
	// full on the spot.
	want  map[int]uint32
	plans map[int][]byte
}

func newFleetPlan(rng *rand.Rand) *fleetPlan {
	systems := fleetRegistry(rng)
	return &fleetPlan{systems: systems, caps: capOrder(rng, 200), register: mustJSON(map[string]any{"systems": systems})}
}

func (w *fleetPlan) clients() int     { return 1 }
func (w *fleetPlan) tail() float64    { return 75 }
func (w *fleetPlan) routes() []string { return []string{"POST /api/v2/fleet/plan"} }

func planBody(m int) []byte { return mustJSON(map[string]int{"maxConcurrent": m}) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *fleetPlan) prime(d *daemon, c *http.Client) error {
	x, err := call(c, http.MethodPost, d.base+"/api/v2/fleet/register", w.register)
	if err == nil && x.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", x.status, x.body)
	}
	if err != nil {
		return fmt.Errorf("register fleet: %w", err)
	}
	return nil
}

// warm plans once per cap, which fills the engine and campaign caches
// the timed plans read and records each cap's plan.
func (w *fleetPlan) warm(d *daemon, c *http.Client) error {
	w.want, w.plans = map[int]uint32{}, map[int][]byte{}
	for _, m := range maxConcurrentChoices {
		x, err := call(c, http.MethodPost, d.base+"/api/v2/fleet/plan", planBody(m))
		if err == nil && x.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", x.status, x.body)
		}
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		w.want[m], w.plans[m] = crc32.Checksum(x.body, castagnoli), x.body
	}
	return nil
}

func (w *fleetPlan) op(d *daemon, c *http.Client, _ *rand.Rand, seq int, sp *span) opResult {
	m := w.caps[seq%len(w.caps)]
	cs := sp.child("net:POST /api/v2/fleet/plan")
	x, err := call(c, http.MethodPost, d.base+"/api/v2/fleet/plan", planBody(m))
	cs.end()
	r := opResult{latency: x.total, first: x.first, designs: len(w.systems), streamTime: x.total, bytes: x.bytes, err: err}
	if err == nil && x.status != http.StatusOK {
		r.err = fmt.Errorf("fleet plan: status %d", x.status)
	} else if err == nil && crc32.Checksum(x.body, castagnoli) != w.want[m] {
		r.err = w.covers(x.body)
	}
	return r
}

// planAnswer is the part of a fleet plan the coverage check reads.
type planAnswer struct {
	Plan struct {
		Systems []struct {
			System struct {
				ID string `json:"id"`
			} `json:"system"`
		} `json:"systems"`
		Windows []json.RawMessage `json:"windows"`
	} `json:"plan"`
}

// covers checks that a plan schedules every registered system once.
func (w *fleetPlan) covers(body []byte) error {
	var a planAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("fleet plan: %w", err)
	}
	ids := make([]string, 0, len(a.Plan.Systems))
	for _, s := range a.Plan.Systems {
		ids = append(ids, s.System.ID)
	}
	sort.Strings(ids)
	for i, s := range w.systems {
		if i >= len(ids) || ids[i] != s.ID {
			return fmt.Errorf("fleet plan covers %d systems, not the %d registered", len(ids), len(w.systems))
		}
	}
	if len(ids) != len(w.systems) || len(a.Plan.Windows) == 0 {
		return fmt.Errorf("fleet plan: %d systems, %d windows", len(ids), len(a.Plan.Windows))
	}
	return nil
}

func (w *fleetPlan) finish(*daemon, *http.Client) []error {
	var errs []error
	for _, m := range maxConcurrentChoices {
		if err := w.covers(w.plans[m]); err != nil {
			errs = append(errs, fmt.Errorf("maxConcurrent %d: %w", m, err))
		}
	}
	return errs
}
