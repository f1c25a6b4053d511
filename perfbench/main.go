// Command perfbench is redpatch's end-to-end benchmark. It starts the
// redpatchd binary it is given on a loopback port with default flags,
// drives one of four closed-loop workloads against it from this single
// load process, checks every answer, and prints each metric by name and
// unit, ending with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 they are the per-layer ones (see trace.go). run.sh
// builds redpatchd and this command from the tree and runs it:
//
//	bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRepeats is how many fresh daemons a run starts and primes; setup_s
// is their median and the last one serves the timed window.
const setupRepeats = 9

// bounded are the end-to-end metrics BENCHMARK.json bounds and the JSON
// line carries. The wall-clock ones are printed only: on a shared 2-core
// machine, CPU stolen by other tenants moves them by more than the largest
// bound a metric may have. Daemon CPU time per operation drifts too, as
// other tenants slow the same code, so the bounded CPU figure is the one
// divided by the reference process's cost (reference.go).
var bounded = map[string]bool{"setup_s": true, "cpu_ref_per_op": true, "rss_peak_mb": true}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	var refMode bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the daemon receives only bodies generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.StringVar(&cfg.bin, "daemon", ".bench_build/redpatchd", "redpatchd binary under test")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps")
	flag.BoolVar(&refMode, "reference", false, "run as the reference process (started by the benchmark itself)")
	flag.Parse()
	if refMode {
		runReference()
		return
	}
	cfg.trace = traceFlag == 1
	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printEnvironment(cfg)

	var res result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if !cfg.trace && !bounded[n] {
			note = " (printed only)"
			delete(res.Metrics, n)
		}
		fmt.Printf("metric %-40s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printEnvironment records what the numbers were measured on.
func printEnvironment(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Printf("env nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit, sourceDigest())
	fmt.Printf("run workload=%s seed=%d held_out_seed=%d seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, heldOutSeed, cfg.seconds, cfg.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the tree where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\n", path)
			_, _ = io.Copy(h, f)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// window is one timed closed-loop run of a workload against a primed
// daemon.
type window struct {
	w      workload
	setups []float64 // seconds per set-up: daemon start to ready, plus priming
	warmup time.Duration
	ops    []opResult
	length time.Duration
	cpu    float64   // daemon CPU seconds inside the window
	ref    refTotals // reference process totals over the window (untraced runs)
	rssMB  float64
	errs   []error // wrong answers found after the window
	before metrics // /metrics at the window's start and end (traced runs)
	after  metrics
}

// runWindow sets the workload up setupRepeats times, each on a fresh
// daemon, then drives the last daemon for seconds. With tr non-nil half
// of each client's operations record spans, and a pipelining workload
// keeps one request in flight per connection, so that client and server
// time split per request. With tr nil the reference process runs through
// the window.
func runWindow(name string, seed int64, seconds float64, bin string, tr *tracer) (*window, error) {
	var (
		w   workload
		d   *daemon
		c0  *http.Client
		out = &window{}
	)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			d.stop()
			c0.CloseIdleConnections()
		}
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		c0 = newClient()
		t0 := time.Now()
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		if err = w.prime(d, c0); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	if wm, ok := w.(warmer); ok {
		t0 := time.Now()
		if err := wm.warm(d, c0); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		out.warmup = time.Since(t0)
	}
	out.w = w
	clients := []*http.Client{c0}
	for len(clients) < w.clients() {
		clients = append(clients, newClient())
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	if tr != nil {
		var err error
		if out.before, err = scrape(c0, d.base); err != nil {
			return nil, err
		}
	}

	pl, pipelining := w.(pipeliner)
	pipelining = pipelining && tr == nil
	if pipelining {
		// The pipelined connections are the only ones open in the window.
		c0.CloseIdleConnections()
	}
	var ref *reference
	if tr == nil {
		var err error
		if ref, err = startReference(); err != nil {
			return nil, err
		}
		defer func() {
			if ref != nil {
				_, _ = ref.stop() // an error path; the result is not reported
			}
		}()
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var ref0 refTotals
	if ref != nil {
		ref0 = ref.totals()
	}
	var (
		seq   atomic.Int64
		wg    sync.WaitGroup
		perOp = make([][]opResult, len(clients))
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			if pipelining {
				perOp[ci] = pl.pipeline(d, rng, deadline)
				return
			}
			for k := 0; time.Now().Before(deadline); k++ {
				var sp *span
				// Traced and untraced operations alternate in runs of
				// three, so fleet-plan's rotation of its three caps falls
				// evenly on both halves of the overhead comparison.
				if tr != nil && (k/3)%2 == 0 {
					sp = tr.root(name + ".op")
				}
				r := w.op(d, clients[ci], rng, int(seq.Add(1)-1), sp)
				sp.end()
				r.traced = sp != nil
				perOp[ci] = append(perOp[ci], r)
			}
		}(ci)
	}
	wg.Wait()
	out.length = time.Since(start)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	if ref != nil {
		ref1, err := ref.stop()
		ref = nil
		if err != nil {
			return nil, err
		}
		out.ref = refTotals{ref1.iters - ref0.iters, ref1.cpu - ref0.cpu}
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	for ci := range perOp {
		out.ops = append(out.ops, perOp[ci]...)
	}
	if tr != nil {
		if out.after, err = scrape(c0, d.base); err != nil {
			return nil, err
		}
	}
	out.errs = w.finish(d, c0)
	return out, nil
}

// failures counts the operations that failed or answered wrongly.
func (w *window) failures() int {
	n := len(w.errs)
	for _, r := range w.ops {
		if r.err != nil {
			n++
		}
	}
	if n > len(w.ops) {
		n = len(w.ops)
	}
	return n
}

func (w *window) reportErrors() {
	shown := 0
	for _, err := range w.errs {
		fmt.Fprintln(os.Stderr, "wrong answer:", err)
	}
	for _, r := range w.ops {
		if r.err != nil && shown < 5 {
			fmt.Fprintln(os.Stderr, "failed operation:", r.err)
			shown++
		}
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(cfg config) (result, error) {
	win, err := runWindow(cfg.workload, cfg.seed, cfg.seconds, cfg.bin, nil)
	if err != nil {
		return result{}, err
	}
	win.reportErrors()
	n := len(win.ops)
	if n == 0 {
		return result{}, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}
	failed := win.failures()

	// A failed operation counts as missing every latency limit.
	var lat, first, rate []float64
	for _, r := range win.ops {
		if r.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(r.latency))
		first = append(first, ms(r.first))
		rate = append(rate, float64(r.designs)/r.streamTime.Seconds())
	}
	sort.Float64s(lat)
	p50, _ := percentile(lat, 50)
	tp, tail, beyond := tailPercentile(lat, win.w.tail())
	refPer := win.ref.perIter(refTotals{})
	if !(refPer > 0) {
		return result{}, fmt.Errorf("the reference process finished no burst in the %gs window", cfg.seconds)
	}
	fmt.Printf("loop=closed clients=%d ops=%d window_s=%.3f setups_s=%.4f warmup_s=%.4f\n",
		win.w.clients(), n, win.length.Seconds(), win.setups, win.warmup.Seconds())
	fmt.Printf("reference task: %.3f us of CPU per iteration over %d iterations\n", refPer*1e6, win.ref.iters)
	fmt.Printf("tail_ms is p%g of %d samples, %d beyond it\n", tp, n, beyond)
	fmt.Printf("metric %-40s %14.6g ratio\n", "failed_ratio", float64(failed)/float64(n))

	m := map[string]metric{
		"setup_s":        {median(win.setups), "s"},
		"ops_per_s":      {float64(n) / win.length.Seconds(), "1/s"},
		"p50_ms":         {p50, "ms"},
		"tail_ms":        {tail, "ms"},
		"cpu_ms_per_op":  {win.cpu * 1000 / float64(n), "ms"},
		"cpu_ref_per_op": {win.cpu / float64(n) / refPer, "ref"},
		"designs_per_s":  {median(rate), "1/s"},
		"first_line_ms":  {median(first), "ms"},
		"rss_peak_mb":    {win.rssMB, "MB"},
	}
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
