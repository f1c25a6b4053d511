package main

// Golden pins for every response that carries a design Pareto front:
// the NDJSON sweep stream's done trailer, the /api/v2/pareto body and
// the "pareto" field of /api/v2/sweep, all over one fixed 256-design
// space. The files under testdata/ are the exact bytes the handlers
// produce; any change to the front's membership, order or encoding
// shows up as a diff here.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"redpatch"
)

// goldenSweep is the fixed space: 1..4 replicas on each of the four
// paper tiers, 4^4 = 256 designs, no bounds.
const goldenSweep = `{"tiers":[
	{"role":"dns","min":1,"max":4},
	{"role":"web","min":1,"max":4},
	{"role":"app","min":1,"max":4},
	{"role":"db","min":1,"max":4}]}`

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden bytes:\n got: %s\nwant: %s", name, got, want)
	}
}

// goldenPost runs one request against the shared server and requires
// a 200.
func goldenPost(t *testing.T, path string) []byte {
	t.Helper()
	w := do(t, testServer(t).handler(), http.MethodPost, path, goldenSweep)
	if w.Code != http.StatusOK {
		t.Fatalf("%s status = %d: %s", path, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

func TestGoldenSweepStreamTrailer(t *testing.T) {
	lines := ndjsonLines(t, string(goldenPost(t, "/api/v2/sweep/stream")))
	checkGolden(t, "golden_sweep_stream_trailer.json", []byte(lines[len(lines)-1]+"\n"))
}

func TestGoldenParetoV2Body(t *testing.T) {
	checkGolden(t, "golden_pareto_v2.json", goldenPost(t, "/api/v2/pareto"))
}

func TestGoldenSweepV2Pareto(t *testing.T) {
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(goldenPost(t, "/api/v2/sweep"), &resp); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_sweep_v2_pareto.json", append(resp["pareto"], '\n'))
}

// Golden pins for the engine counters and the design-spec wire shape:
// the engine block as /healthz, /api/v2/scenarios and /metrics render
// it after a fixed sweep plus a rollout, a v2 evaluate of a variant
// design, and the fleet registry listing. Wall-clock values (uptime,
// scenario creation time) are masked before comparing.

var (
	uptimeField  = regexp.MustCompile(`("uptimeSeconds":\s*)[^,\n}]+`)
	createdField = regexp.MustCompile(`("created":\s*)"[^"]*"`)
)

// maskClock replaces the wall-clock values of a response body.
func maskClock(body []byte) []byte {
	body = uptimeField.ReplaceAll(body, []byte(`${1}0`))
	return createdField.ReplaceAll(body, []byte(`${1}"-"`))
}

// goldenCountersServer is a fresh single-worker server (so every memo
// counter is deterministic) after one fixed sweep with a variant tier
// and one rolling/4 rollout of the base design.
func goldenCountersServer(t *testing.T) http.Handler {
	t.Helper()
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := mustServer(t, study, serverConfig{maxDesigns: 4096, maxReplicas: 16}).handler()
	for _, req := range []struct{ path, body string }{
		{"/api/v2/sweep/stream", `{"tiers":[
			{"role":"dns","min":1,"max":2},
			{"role":"web","min":1,"max":2,"variants":["","webalt"]},
			{"role":"app","min":1,"max":2},
			{"role":"db","min":1,"max":1}]}`},
		{"/api/v2/rollout/sweep", `{
			"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
			"schedule":{"strategy":"rolling","steps":4}}`},
	} {
		if w := do(t, h, http.MethodPost, req.path, req.body); w.Code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", req.path, w.Code, w.Body)
		}
	}
	return h
}

func TestGoldenEngineCounters(t *testing.T) {
	h := goldenCountersServer(t)
	get := func(path string) []byte {
		w := do(t, h, http.MethodGet, path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	checkGolden(t, "golden_healthz.json", maskClock(get("/healthz")))
	checkGolden(t, "golden_scenarios.json", maskClock(get("/api/v2/scenarios")))

	// The queue-wait histogram measures wall time, so only the counter
	// and gauge families are pinned.
	var engine []byte
	for _, line := range strings.SplitAfter(string(get("/metrics")), "\n") {
		if strings.Contains(line, "redpatchd_engine_") && !strings.Contains(line, "queue_wait") {
			engine = append(engine, line...)
		}
	}
	checkGolden(t, "golden_metrics_engine.txt", engine)
}

func TestGoldenEvaluateV2Variant(t *testing.T) {
	w := do(t, testServer(t).handler(), http.MethodPost, "/api/v2/evaluate", `{"spec":{"tiers":[
		{"role":"dns","replicas":1},
		{"role":"web","replicas":1},
		{"role":"web","replicas":2,"variant":"webalt"},
		{"role":"app","replicas":2},
		{"role":"db","replicas":1}]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "golden_evaluate_v2_variant.json", w.Body.Bytes())
}

func TestGoldenFleetSystems(t *testing.T) {
	h := mustServer(t, newStudy(t), serverConfig{}).handler()
	variant := `{"id":"edge-c","role":"web","windowMinutes":90,"successProbability":0.9,"rollbackMinutes":15,
		"tiers":[{"role":"web","replicas":1},{"role":"web","replicas":2,"variant":"webalt"},{"role":"db","replicas":1}]}`
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register",
		`{"systems":[`+fleetSystemB+`,`+variant+`,`+fleetSystemA+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	w := do(t, h, http.MethodGet, "/api/v2/fleet/systems", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "golden_fleet_systems.json", w.Body.Bytes())
}

// goldenFleet is the fixed fleet behind the plan and simulate pins: two
// campaign roles, three window sizes, mixed priorities, a deadline the
// schedule cannot hold (edge-b's 35-minute window splits its campaign
// over several cycles) and two identical systems (tie-1, tie-2) whose
// equal scores leave the order to the ID tiebreak. Three systems fail
// some windows, so the seeded simulation rolls back and defers.
const goldenFleet = `{"systems":[
	{"id":"tie-2","role":"app","windowMinutes":60,"successProbability":0.5,"rollbackMinutes":10,
	 "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
	{"id":"tie-1","role":"app","windowMinutes":60,"successProbability":0.5,"rollbackMinutes":10,
	 "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
	{"id":"edge-b","role":"app","priority":2,"windowMinutes":35,"deadlineHours":720,
	 "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":3},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
	{"id":"web-a","role":"web","priority":1.5,"windowMinutes":120,"deadlineHours":2160,"successProbability":0.3,"rollbackMinutes":20,
	 "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
	{"id":"web-c","role":"web","priority":1.2,"windowMinutes":35,
	 "tiers":[{"role":"dns","replicas":2},{"role":"web","replicas":3},{"role":"app","replicas":1},{"role":"db","replicas":2}]},
	{"id":"core-d","role":"app","priority":1.5,"windowMinutes":120,"deadlineHours":1,
	 "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":3},{"role":"db","replicas":1}]}]}`

// goldenFleetServer is a fresh server with goldenFleet registered.
func goldenFleetServer(t *testing.T) http.Handler {
	t.Helper()
	h := mustServer(t, newStudy(t), serverConfig{}).handler()
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", goldenFleet); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	return h
}

func TestGoldenFleetPlan(t *testing.T) {
	w := do(t, goldenFleetServer(t), http.MethodPost, "/api/v2/fleet/plan", `{"maxConcurrent":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "golden_fleet_plan.json", w.Body.Bytes())
}

func TestGoldenFleetSimulate(t *testing.T) {
	w := do(t, goldenFleetServer(t), http.MethodPost, "/api/v2/fleet/simulate",
		`{"seed":5,"maxConcurrent":2,"maxAttempts":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "golden_fleet_simulate.ndjson", w.Body.Bytes())
}
