package main

// HTTP client side of the load process: one keep-alive connection per
// client, timed requests, pipelined requests, and NDJSON stream reading.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// newClient returns a client that holds exactly one keep-alive
// connection to the daemon. The timeout bounds a run against a hung
// daemon; no operation comes near it.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// exchange is one timed HTTP request.
type exchange struct {
	status int
	body   []byte // whole body; nil for streams
	first  time.Duration
	total  time.Duration
	bytes  int64
}

// call sends one request and reads the whole response. first is the
// time to the response headers.
func call(c *http.Client, method, url string, body []byte) (exchange, error) {
	var x exchange
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return x, err
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return x, err
	}
	x.first = time.Since(t0)
	x.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.total = time.Since(t0)
	x.status = resp.StatusCode
	x.bytes = int64(len(x.body))
	if err != nil {
		return x, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return x, nil
}

// stream POSTs body and hands each NDJSON line to fn in order. first is
// the time to the first complete line. A non-200 answer is an error.
func stream(c *http.Client, url string, body []byte, fn func(line []byte) error) (exchange, error) {
	var x exchange
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return x, err
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return x, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if x.first == 0 {
			x.first = time.Since(t0)
		}
		x.bytes += int64(len(line)) + 1
		if err := fn(line); err != nil {
			_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
			return x, err
		}
	}
	x.total = time.Since(t0)
	if err := sc.Err(); err != nil {
		return x, fmt.Errorf("POST %s: read stream: %w", url, err)
	}
	return x, nil
}

// pipelined POSTs bodies drawn by rng to path over one keep-alive
// connection, keeping depth requests in flight (HTTP/1.1 pipelining): a
// new request goes out each time an answer has been read, until the
// deadline. It is still a closed loop, of depth callers sharing one
// connection. check judges the answer to bodies[i]. An operation's
// latency runs from writing its request to reading its whole answer, so
// it includes the wait behind the requests ahead of it.
func pipelined(base, path string, bodies [][]byte, depth int, rng *rand.Rand, deadline time.Time,
	check func(i, status int, body []byte) error) []opResult {
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return []opResult{{err: err}}
	}
	defer conn.Close()
	// Bounds a run against a hung daemon; no operation comes near it.
	if err := conn.SetDeadline(deadline.Add(30 * time.Second)); err != nil {
		return []opResult{{err: err}}
	}
	reqs := make([][]byte, len(bodies))
	for i, b := range bodies {
		head := "POST " + path + " HTTP/1.1\r\nHost: " + host +
			"\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(b)) + "\r\n\r\n"
		reqs[i] = append([]byte(head), b...)
	}
	type sent struct {
		i  int
		t0 time.Time
	}
	bw := bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	var inFlight []sent
	send := func() error {
		i := rng.Intn(len(reqs))
		inFlight = append(inFlight, sent{i, time.Now()})
		_, err := bw.Write(reqs[i])
		return err
	}
	for k := 0; k < depth && err == nil; k++ {
		err = send()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return []opResult{{err: fmt.Errorf("POST %s: write: %w", path, err)}}
	}
	var out []opResult
	for len(inFlight) > 0 {
		s := inFlight[0]
		inFlight = inFlight[1:]
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return append(out, opResult{err: fmt.Errorf("POST %s: read answer: %w", path, err)})
		}
		first := time.Since(s.t0)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(s.t0)
		r := opResult{latency: lat, first: first, designs: 1, streamTime: lat, bytes: int64(len(body))}
		if err != nil {
			r.err = fmt.Errorf("POST %s: read body: %w", path, err)
			return append(out, r)
		}
		r.err = check(s.i, resp.StatusCode, body)
		out = append(out, r)
		if time.Now().Before(deadline) {
			if err := send(); err == nil {
				err = bw.Flush()
			}
			if err != nil {
				return append(out, opResult{err: fmt.Errorf("POST %s: write: %w", path, err)})
			}
		}
	}
	return out
}
