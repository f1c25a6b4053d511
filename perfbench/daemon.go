package main

// The daemon under test: one redpatchd process on a loopback port with
// default flags, its readiness, its /metrics counters and its kernel
// CPU and memory accounting.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned
	stderr *bytes.Buffer // read only after exited is closed
}

// startDaemon launches bin on a free loopback port and returns once
// /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", addr),
		base:   "http://" + addr,
		exited: make(chan struct{}),
		stderr: &bytes.Buffer{},
	}
	d.cmd.Stderr = d.stderr
	// The daemon must not outlive a load process that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through exited
		close(d.exited)
	}()
	if err := d.waitReady(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz on short-lived connections until it answers
// 200, the process exits, or 30 seconds pass.
func (d *daemon) waitReady() error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("redpatchd exited before ready: %s", d.stderr.String())
		default:
		}
		if resp, err := c.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// Polls are cheap refused connects until the daemon listens; a
		// short interval keeps set-up times of about 10 ms resolvable.
		time.Sleep(250 * time.Microsecond)
	}
	return errors.New("redpatchd not ready within 30s")
}

// stop sends SIGTERM, the daemon's graceful shutdown, and waits for the
// process to end; after ten seconds it kills it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds is the daemon's user plus system CPU time so far, over all
// of its threads.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", raw)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM, its resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics is one /metrics scrape: sample name with labels, as printed,
// to value.
type metrics map[string]float64

func scrape(c *http.Client, base string) (metrics, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// routeSeconds returns the request-duration histogram sum of one route.
func (m metrics) routeSeconds(route string) float64 {
	return m[`redpatchd_http_request_duration_seconds_sum{route="`+route+`"}`]
}

// engine returns one per-scenario engine counter, e.g. "solves_total".
func (m metrics) engine(counter, scenario string) float64 {
	return m["redpatchd_engine_"+counter+`{scenario="`+scenario+`"}`]
}

// delta returns after minus before for every sample in after.
func (m metrics) delta(before metrics) metrics {
	out := metrics{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}
