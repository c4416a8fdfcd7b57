// Package loadgen holds the HTTP client helpers the radixserve and
// radixrouter selftests share: a keep-alive client, an inference POST that
// reports the answering backend, a /metrics scrape with exemplar trace-ID
// extraction, and a latency percentile. It depends only on the standard
// library, so the wire schema stays the caller's choice: Post marshals
// whatever request value it is given and decodes into the response type
// the caller names.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// headerBackend names the backend that answered a request routed through
// a cluster router.
const headerBackend = "X-Radix-Backend"

// Client returns an HTTP client tuned for many concurrent keep-alive
// connections to one host.
func Client() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 128
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// Post sends one inference request to url's /v1/infer and returns the HTTP
// status, the headerBackend value (empty when no router answered), and the
// decoded response body, which is valid only for status 200. req is sent
// as is when it is a []byte and JSON-encoded otherwise.
func Post[Resp any](ctx context.Context, client *http.Client, url string, req any) (status int, backend string, out Resp, err error) {
	body, ok := req.([]byte)
	if !ok {
		if body, err = json.Marshal(req); err != nil {
			return 0, "", out, err
		}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return 0, "", out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, "", out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, "", out, err
		}
	}
	return resp.StatusCode, resp.Header.Get(headerBackend), out, nil
}

// GetJSON decodes the body of a 200 GET response into out.
func GetJSON(ctx context.Context, client *http.Client, url string, out any) error {
	resp, err := get(ctx, client, url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ScrapeMetrics fetches url's /metrics exposition as text.
func ScrapeMetrics(ctx context.Context, client *http.Client, url string) (string, error) {
	resp, err := get(ctx, client, url+"/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// get issues a GET bound to ctx.
func get(ctx context.Context, client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

// ExemplarTraceIDs extracts the trace IDs of every exemplar annotation
// (` # {trace_id="<32 hex>"} <value>`) on scrape lines with the given
// prefix.
func ExemplarTraceIDs(scrape, prefix string) []string {
	var ids []string
	for _, line := range strings.Split(scrape, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		_, exemplar, ok := strings.Cut(line, " # ")
		if !ok {
			continue
		}
		_, rest, ok := strings.Cut(exemplar, `trace_id="`)
		if !ok {
			continue
		}
		if end := strings.IndexByte(rest, '"'); end > 0 {
			ids = append(ids, rest[:end])
		}
	}
	return ids
}

// Percentile returns the p-th percentile (0–100) of the latencies.
func Percentile(lat []time.Duration, p int) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s) * p) / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
