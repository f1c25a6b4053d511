package main

// Native fuzz targets for the fleet request decoders. A hostile body
// must never panic the decode-and-validate path, and a body the decoder
// accepts must be rejected once trailing garbage follows it. The seed
// corpora are under testdata/fuzz/.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"redpatch"
	"redpatch/internal/fleet"
)

// fuzzRequest wraps data as the body of a POST.
func fuzzRequest(data []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
}

// trailingGarbage are suffixes decodeJSON must refuse after a complete
// object: stray closers, a second value, a bare word.
var trailingGarbage = []string{"}", "]", "{}", "x"}

// checkTrailing fails if decodeJSON accepts data followed by any
// trailingGarbage suffix; data itself must decode into a T.
func checkTrailing[T any](t *testing.T, data []byte) {
	t.Helper()
	for _, g := range trailingGarbage {
		var v T
		if decodeJSON(fuzzRequest(append(data[:len(data):len(data)], g...)), &v) == nil {
			t.Fatalf("trailing %q accepted after %q", g, data)
		}
	}
}

func FuzzFleetPlanRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req fleetPlanRequest
		if decodeJSON(fuzzRequest(data), &req) != nil {
			return
		}
		checkTrailing[fleetPlanRequest](t, data)
		if req.validate() != nil {
			return
		}
		if o := req.options(); o.MaxConcurrent < 0 || o.CycleHours < 0 {
			t.Fatalf("validated request %q yields options %+v", data, o)
		}
	})
}

// FuzzFleetRegisterRequest also requires every system checkSystem
// accepts to register, and the registry holding them to restore from
// its own snapshot: a daemon must be able to persist what it took in.
func FuzzFleetRegisterRequest(f *testing.F) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	s, err := newServer(study, serverConfig{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req fleetRegisterRequest
		if decodeJSON(fuzzRequest(data), &req) != nil {
			return
		}
		checkTrailing[fleetRegisterRequest](t, data)
		reg := fleet.NewRegistry()
		for _, sys := range req.Systems {
			if s.checkSystem(sys) != nil {
				continue
			}
			if err := reg.Register(sys); err != nil {
				t.Fatalf("system %q passed checkSystem, registry refused it: %v", sys.ID, err)
			}
		}
		snap, err := reg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := fleet.NewRegistry().Restore(snap); err != nil || n != reg.Len() {
			t.Fatalf("snapshot %s restored %d of %d systems: %v", snap, n, reg.Len(), err)
		}
	})
}
