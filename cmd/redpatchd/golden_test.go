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
	"testing"
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
