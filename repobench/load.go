package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"
)

// Sent is the record of one completed request.
type Sent struct {
	Index   int
	Req     Request
	Status  int
	Cache   string // X-Stackd-Cache
	Latency time.Duration
	// Body is kept for every request of a cold workload and for the
	// sampled requests of a hit workload (see keepBody).
	Body []byte
	Err  error
}

// LoadResult is the outcome of one measured closed-loop run.
type LoadResult struct {
	Sent []Sent
	// Busy is the time from the start of the run to the last reply; the
	// client was never idle inside it.
	Busy time.Duration
}

// Rate sums f over the completed requests and divides by the busy
// time. With f = 1 it is the throughput: the request in flight at the
// deadline is finished, not cut off.
func (lr LoadResult) Rate(f func(Sent) float64) float64 {
	if lr.Busy <= 0 {
		return 0
	}
	var sum float64
	for _, s := range lr.Sent {
		sum += f(s)
	}
	return sum / lr.Busy.Seconds()
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 170 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole reply into buf.
func post(ctx context.Context, c *http.Client, base string, r Request, buf *bytes.Buffer) (status int, cache string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/experiments/"+r.Experiment, bytes.NewReader(r.Body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", fmt.Errorf("reading reply: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Stackd-Cache"), nil
}

// runLoad drives one closed-loop client against base for d: it sends
// its next request only after the previous reply, stops issuing at the
// deadline, and finishes the request it has in flight. keepBody says
// which indices' reply bodies to retain; onReply runs after each reply
// with the number received so far.
func runLoad(ctx context.Context, base string, d time.Duration, src func(int) Request, keepBody func(i int) bool, onReply func(n int)) LoadResult {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	var out LoadResult
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		r := src(i)
		t0 := time.Now()
		status, cache, err := post(ctx, hc, base, r, &buf)
		t1 := time.Now()
		s := Sent{Index: i, Req: r, Status: status, Cache: cache, Latency: t1.Sub(t0), Err: err}
		if err == nil && keepBody(i) {
			s.Body = bytes.Clone(buf.Bytes())
		}
		out.Sent = append(out.Sent, s)
		out.Busy = t1.Sub(start)
		onReply(len(out.Sent))
	}
	return out
}

// sendAll sends each request of reqs once, in order, and keeps every
// reply (Index = position in reqs).
func sendAll(ctx context.Context, base string, reqs []Request) []Sent {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	out := make([]Sent, len(reqs))
	for i, r := range reqs {
		t0 := time.Now()
		status, cache, err := post(ctx, hc, base, r, &buf)
		out[i] = Sent{Index: i, Req: r, Status: status, Cache: cache,
			Latency: time.Since(t0), Body: bytes.Clone(buf.Bytes()), Err: err}
	}
	return out
}
