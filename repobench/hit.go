package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"diestack/internal/serve"
)

// HitLayers is the in-process cost of serving the warm set from cache.
type HitLayers struct {
	// Handler and Key are per-element mean times of one in-process
	// serve.Server.ServeHTTP on a hit, and of its cache-key path.
	Handler, Key []time.Duration
	// OverheadPct compares handler calls timed one by one with the same
	// calls timed as one batch.
	OverheadPct float64
}

func hitRequest(r Request) *http.Request {
	hr := httptest.NewRequest(http.MethodPost, "/v1/experiments/"+r.Experiment, bytes.NewReader(r.Body))
	hr.Header.Set("Content-Type", "application/json")
	return hr
}

// serveHit runs one request through srv and requires a cache hit.
func serveHit(srv *serve.Server, hr *http.Request, rec *httptest.ResponseRecorder) error {
	srv.ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Stackd-Cache") != "hit" {
		return fmt.Errorf("in-process %s: status %d, cache %q", hr.URL.Path, rec.Code, rec.Header().Get("X-Stackd-Cache"))
	}
	return nil
}

// hitLayers warms an in-process stackd handler with set, then times
// cache hits on it for about budget.
func hitLayers(set []Request, budget time.Duration) (HitLayers, error) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	for _, r := range set {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, hitRequest(r))
		if rec.Code != http.StatusOK {
			return HitLayers{}, fmt.Errorf("warming %s: status %d", r.Experiment, rec.Code)
		}
	}
	h := HitLayers{Handler: make([]time.Duration, len(set)), Key: make([]time.Duration, len(set))}
	rounds := 0
	var traced time.Duration
	for start := time.Now(); rounds == 0 || time.Since(start) < budget/2; rounds++ {
		hrs := make([]*http.Request, len(set))
		recs := make([]*httptest.ResponseRecorder, len(set))
		for e, r := range set {
			hrs[e], recs[e] = hitRequest(r), httptest.NewRecorder()
		}
		for e := range set {
			t0 := time.Now()
			err := serveHit(srv, hrs[e], recs[e])
			d := time.Since(t0)
			if err != nil {
				return h, err
			}
			h.Handler[e] += d
			traced += d
		}
	}
	for e := range set {
		h.Handler[e] /= time.Duration(rounds)
	}
	keyRounds := 0
	for start := time.Now(); keyRounds == 0 || time.Since(start) < budget/4; keyRounds++ {
		for e, r := range set {
			k, err := keyTime(r)
			if err != nil {
				return h, err
			}
			h.Key[e] += k
		}
	}
	for e := range set {
		h.Key[e] /= time.Duration(keyRounds)
	}
	// The same calls, prepared up front and timed as one batch; recorders
	// hold whole replies, so the batch is capped.
	batchRounds := min(rounds, 64)
	hrs := make([]*http.Request, 0, batchRounds*len(set))
	recs := make([]*httptest.ResponseRecorder, 0, batchRounds*len(set))
	for n := 0; n < batchRounds; n++ {
		for _, r := range set {
			hrs = append(hrs, hitRequest(r))
			recs = append(recs, httptest.NewRecorder())
		}
	}
	t0 := time.Now()
	for n, hr := range hrs {
		srv.ServeHTTP(recs[n], hr)
	}
	batch := time.Since(t0)
	for n, hr := range hrs {
		if recs[n].Code != http.StatusOK || recs[n].Header().Get("X-Stackd-Cache") != "hit" {
			return h, fmt.Errorf("in-process %s: status %d", hr.URL.Path, recs[n].Code)
		}
	}
	perTraced := traced.Seconds() / float64(rounds)
	perBatch := batch.Seconds() / float64(batchRounds)
	h.OverheadPct = 100 * (perTraced - perBatch) / perBatch
	return h, nil
}
