package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"encoding/json"

	"redpatch/internal/paperdata"
)

// HTTPWorker speaks the redpatchd worker RPC: POST the shard's sweep
// request to the v2 NDJSON sweep endpoint and stream the report lines
// back, with GET /readyz as the health probe. The protocol is exactly
// the public sweep API — a worker is an ordinary redpatchd process,
// and the lines it returns are forwarded to clients verbatim.
type HTTPWorker struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPWorker builds a worker for a redpatchd base URL
// ("http://host:port", scheme optional — host:port gets http://).
// A nil client uses http.DefaultClient.
func NewHTTPWorker(base string, client *http.Client) *HTTPWorker {
	name := base
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPWorker{name: name, base: strings.TrimRight(base, "/"), client: client}
}

// Name implements Worker.
func (w *HTTPWorker) Name() string { return w.name }

// Healthy implements Worker: GET /readyz, 200 means ready. A worker
// that is alive but still restoring its cache (or not yet registered)
// answers 503 and stays out of the rotation.
func (w *HTTPWorker) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s not ready: %s", w.name, resp.Status)
	}
	return nil
}

// wireLine is the union of every NDJSON line shape the sweep stream
// produces: progress events, the done trailer, error trailers and
// report lines (recognized by their Spec). One unmarshal classifies
// a line. Done is raw because the field is overloaded on the wire:
// progress events carry a completed-design count ("done":12), the
// trailer carries the boolean true.
type wireLine struct {
	Progress bool                 `json:"progress"`
	Done     json.RawMessage      `json:"done"`
	Total    int                  `json:"total"`
	Error    string               `json:"error"`
	Spec     paperdata.DesignSpec `json:"Spec"`
}

// RunShard implements Worker: stream the shard's sweep and emit each
// report line with its design key. A response that ends without a
// done trailer — a worker killed mid-shard — is an error, so the
// coordinator retries the shard elsewhere.
func (w *HTTPWorker) RunShard(ctx context.Context, body []byte, emit func(Report) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/api/v2/sweep/stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("cluster: worker %s: %s: %s", w.name, resp.Status, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var wl wireLine
		if err := json.Unmarshal(line, &wl); err != nil {
			return 0, fmt.Errorf("cluster: worker %s: malformed line: %w", w.name, err)
		}
		switch {
		case wl.Error != "":
			return 0, fmt.Errorf("cluster: worker %s: %s", w.name, wl.Error)
		case string(wl.Done) == "true":
			return wl.Total, nil
		case wl.Progress:
			// Per-shard progress: the coordinator reports shard
			// completions instead, so these are dropped.
		case len(wl.Spec.Tiers) > 0:
			if err := emit(Report{Key: wl.Spec.Key(), Line: append([]byte(nil), line...)}); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("cluster: worker %s: unrecognized line %q", w.name, line)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("cluster: worker %s: stream cut mid-shard: %w", w.name, err)
	}
	return 0, fmt.Errorf("cluster: worker %s: stream ended without done trailer", w.name)
}
