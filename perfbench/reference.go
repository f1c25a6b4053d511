package main

// The reference process. On a shared machine the same daemon code costs
// more CPU time while other tenants load the caches and the sibling
// hyperthreads, so daemon CPU per operation drifts with the machine. A
// second, small process runs a fixed task of the same kind (encoding/json
// encode and decode, allocation, GC) in short bursts through the timed
// window and times it with its own CPU clock. Daemon CPU per operation
// divided by the reference task's CPU per iteration cancels that drift.
// The reference is a process of its own, so its garbage collector sees
// only its own allocation, never the load process's, whose volume
// depends on the daemon's answers.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	refBurst = 10                    // reference iterations per burst
	refPause = 20 * time.Millisecond // pause between bursts: a few percent of one core
)

// refItem is the reference task's record; it does not depend on any
// type of the program under test.
type refItem struct {
	Name   string         `json:"name"`
	Values []float64      `json:"values"`
	Tags   map[string]int `json:"tags"`
}

var refSink int // keeps the reference task's results alive

// refIteration is one iteration of the reference task.
func refIteration() {
	items := make([]refItem, 8)
	for i := range items {
		items[i] = refItem{
			Name:   "item-" + strconv.Itoa(i),
			Values: []float64{0.1 * float64(i), 0.99707, 0.2344, 1e-5},
			Tags:   map[string]int{"a": i, "b": 2 * i},
		}
	}
	b, err := json.MarshalIndent(items, "", "  ")
	if err != nil {
		panic(err) // a fixed plain struct always encodes
	}
	var back []refItem
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	refSink += len(b) + len(back)
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runReference is the reference process's main: bursts of the task
// until standard input closes, each followed by one line of running
// totals, "<iterations> <cpu seconds>".
func runReference() {
	// One P keeps the task and its garbage collection on one thread.
	runtime.GOMAXPROCS(1)
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the load process closes the pipe
		close(stop)
	}()
	iters, cpu := 0, 0.0
	for {
		t0 := processCPU()
		for i := 0; i < refBurst; i++ {
			refIteration()
		}
		cpu += processCPU() - t0
		iters += refBurst
		fmt.Printf("%d %.9f\n", iters, cpu)
		select {
		case <-stop:
			return
		case <-time.After(refPause):
		}
	}
}

// refTotals are the reference process's running totals.
type refTotals struct {
	iters int
	cpu   float64 // seconds
}

// perIter is the reference task's CPU seconds per iteration since t0.
func (t refTotals) perIter(t0 refTotals) float64 {
	if t.iters <= t0.iters {
		return math.NaN()
	}
	return (t.cpu - t0.cpu) / float64(t.iters-t0.iters)
}

// reference is a running reference process.
type reference struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	mu     sync.Mutex
	latest refTotals
	read   chan error // the reader's end: nil at EOF, or why it stopped
}

// startReference starts the reference process and returns once its
// first burst has been reported.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(self, "-reference"), read: make(chan error, 1)}
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.cmd.Stderr = os.Stderr
	if r.stdin, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference process: %w", err)
	}
	first := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for n := 0; sc.Scan(); n++ {
			var t refTotals
			if _, err := fmt.Sscan(sc.Text(), &t.iters, &t.cpu); err != nil {
				r.read <- fmt.Errorf("reference process: %w", err)
				_, _ = io.Copy(io.Discard, stdout)
				return
			}
			r.mu.Lock()
			r.latest = t
			r.mu.Unlock()
			if n == 0 {
				close(first)
			}
		}
		r.read <- sc.Err()
	}()
	select {
	case <-first:
		return r, nil
	case err := <-r.read:
		r.read <- err
		_, _ = r.stop()
		return nil, fmt.Errorf("reference process reported nothing: %v", err)
	}
}

func (r *reference) totals() refTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest
}

// stop ends the reference process, waits for it, and returns its final
// totals.
func (r *reference) stop() (refTotals, error) {
	r.stdin.Close()
	readErr := <-r.read // the reader returns at EOF, after the last line
	waitErr := r.cmd.Wait()
	if err := errors.Join(readErr, waitErr); err != nil {
		return refTotals{}, fmt.Errorf("reference process: %w", err)
	}
	return r.totals(), nil
}
