package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

func specFor(t *testing.T, dns, web, app, db int) paperdata.DesignSpec {
	t.Helper()
	return paperdata.Design{
		Name: paperdata.DefaultName(dns, web, app, db),
		DNS:  dns, Web: web, App: app, DB: db,
	}.Spec()
}

// TestSnapshotRoundTrip dumps a warmed engine and restores it into a
// fresh one: the restored engine must answer from cache (zero solves)
// with byte-identical results.
func TestSnapshotRoundTrip(t *testing.T) {
	ev := paperEvaluator(t)
	counted := &countingEvaluator{inner: ev}
	g, err := New(counted, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	specs := []paperdata.DesignSpec{
		specFor(t, 1, 2, 2, 1),
		specFor(t, 1, 1, 1, 1),
		specFor(t, 2, 2, 2, 2),
	}
	want := make([]redundancy.Result, len(specs))
	for i, sp := range specs {
		if want[i], err = g.EvaluateSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.Len(); n != len(specs) {
		t.Fatalf("Len = %d, want %d", n, len(specs))
	}

	var buf bytes.Buffer
	n, err := g.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("snapshot wrote %d entries, want %d", n, len(specs))
	}

	fresh := &countingEvaluator{inner: ev}
	g2, err := New(fresh, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := g2.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(specs) {
		t.Fatalf("restored %d entries, want %d", restored, len(specs))
	}
	if g2.Len() != len(specs) {
		t.Fatalf("Len after restore = %d, want %d", g2.Len(), len(specs))
	}
	for i, sp := range specs {
		got, err := g2.EvaluateSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want[i]) {
			t.Fatalf("restored result for %s differs:\ngot  %+v\nwant %+v", sp, got, want[i])
		}
	}
	if calls := fresh.calls.Load(); calls != 0 {
		t.Fatalf("restored engine re-solved %d designs", calls)
	}
	st := g2.Stats()
	if st.Solves != 0 || st.Hits != uint64(len(specs)) {
		t.Fatalf("stats after restored serves = %+v", st)
	}
}

// resultsEqual compares the fields the facade serves. Full reflect
// equality would also compare Paths float ordering, which the JSON
// round trip preserves — compare the whole struct via marshal-free
// field checks on the summary plus the path count.
func resultsEqual(a, b redundancy.Result) bool {
	return a.Spec.Key() == b.Spec.Key() &&
		a.COA == b.COA &&
		a.ServiceAvailability == b.ServiceAvailability &&
		a.Before.ASP == b.Before.ASP && a.After.ASP == b.After.ASP &&
		a.Before.AIM == b.Before.AIM && a.After.AIM == b.After.AIM &&
		a.Before.NoEV == b.Before.NoEV && a.After.NoEV == b.After.NoEV &&
		a.Before.NoAP == b.Before.NoAP && a.After.NoAP == b.After.NoAP &&
		a.Before.NoEP == b.Before.NoEP && a.After.NoEP == b.After.NoEP &&
		len(a.Before.Paths) == len(b.Before.Paths) &&
		len(a.After.Paths) == len(b.After.Paths)
}

// TestRestoreRejectsFingerprintMismatch: a dump taken under a different
// vulnerability dataset / policy / schedule (a different fingerprint)
// must be rejected, never merged.
func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{Fingerprint: "dataset-A,thr=8"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpec(specFor(t, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, err := New(ev, Options{Fingerprint: "dataset-B,thr=8"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := other.Restore(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("err = %v, want ErrSnapshotFingerprint", err)
	}
	if n != 0 || other.Len() != 0 {
		t.Fatalf("mismatched snapshot merged %d entries (cache %d)", n, other.Len())
	}
}

// TestRestoreRejectsVersionMismatch: future-format dumps fail loudly.
func TestRestoreRejectsVersionMismatch(t *testing.T) {
	g, err := New(paperEvaluator(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := `{"version":99,"fingerprint":"","entries":[]}`
	n, err := g.Restore(strings.NewReader(in))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
	if n != 0 {
		t.Fatalf("restored %d entries from wrong version", n)
	}
}

// TestRestoreRejectsCorruptEntries: a tampered dump whose entry key
// disagrees with its result spec, or whose spec fails validation, must
// not merge a single entry.
func TestRestoreRejectsCorruptEntries(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpec(specFor(t, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for name, mangle := range map[string]func(string) string{
		"key mismatch": func(s string) string {
			return strings.Replace(s, `"key":"dns:1;`, `"key":"dns:9;`, 1)
		},
		"invalid spec": func(s string) string {
			return strings.Replace(s, `"replicas":1`, `"replicas":0`, 1)
		},
		"not json": func(string) string { return "not a snapshot" },
	} {
		t.Run(name, func(t *testing.T) {
			mangled := mangle(buf.String())
			if mangled == buf.String() {
				t.Fatal("mangling left the snapshot unchanged")
			}
			fresh, err := New(ev, Options{Fingerprint: "fp"})
			if err != nil {
				t.Fatal(err)
			}
			n, err := fresh.Restore(strings.NewReader(mangled))
			if err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			if n != 0 || fresh.Len() != 0 {
				t.Fatalf("corrupt snapshot merged %d entries (cache %d)", n, fresh.Len())
			}
		})
	}
}

// TestRestoreSkipsExistingEntries: live results win over persisted
// ones; restoring on top of a warm cache only fills the gaps.
func TestRestoreSkipsExistingEntries(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []paperdata.DesignSpec{specFor(t, 1, 1, 1, 1), specFor(t, 1, 2, 2, 1)} {
		if _, err := g.EvaluateSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	g2, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.EvaluateSpec(specFor(t, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	restored, err := g2.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1 (the missing design only)", restored)
	}
	if g2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g2.Len())
	}
}

// TestSnapshotSkipsInFlight: an entry still being solved is not
// serialized — the snapshot holds completed results only.
func TestSnapshotSkipsInFlight(t *testing.T) {
	gate := make(chan struct{})
	blocked := &countingEvaluator{inner: paperEvaluator(t), gate: gate}
	g, err := New(blocked, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpec(specFor(t, 1, 1, 1, 1))
		done <- err
	}()
	// Wait for the solve to be registered in-flight.
	for blocked.calls.Load() == 0 {
	}
	var buf bytes.Buffer
	n, err := g.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("snapshot wrote %d in-flight entries", n)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if n, err = g.Snapshot(&buf); err != nil || n != 1 {
		t.Fatalf("after completion: n = %d, err = %v", n, err)
	}
}

// TestSnapshotDeterministic: equal caches produce byte-identical dumps
// regardless of evaluation order.
func TestSnapshotDeterministic(t *testing.T) {
	ev := paperEvaluator(t)
	specs := []paperdata.DesignSpec{
		specFor(t, 1, 1, 1, 1), specFor(t, 2, 1, 1, 1), specFor(t, 1, 2, 1, 1),
	}
	dump := func(order []int) string {
		g, err := New(ev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := g.EvaluateSpec(specs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := g.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if dump([]int{0, 1, 2}) != dump([]int{2, 0, 1}) {
		t.Fatal("snapshot bytes depend on evaluation order")
	}
}
