package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diestack/internal/core"
	"diestack/internal/obs"
)

// countingExperiment returns a synthetic catalog entry that counts its
// invocations and, when gate is non-nil, blocks inside the runner
// until the gate closes — the knob every concurrency test turns.
func countingExperiment(name string, runs *atomic.Int64, gate chan struct{}) core.Experiment {
	return core.Experiment{
		Name: name,
		Doc:  "test experiment",
		Runner: func(ctx context.Context, spec core.RunSpec, _ any) (any, error) {
			runs.Add(1)
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return map[string]uint64{"seed": spec.Seed}, nil
		},
	}
}

// flightWaiters returns how many requests are attached to open
// flights, leaders included.
func flightWaiters(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.flights {
		n += f.waiters
	}
	return n
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestCacheHitMiss(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	s := New(Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, nil)},
		Obs:         reg,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/count"

	resp, body1 := post(t, url, `{"spec":{"seed":7}}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("first POST: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Stackd-Cache"))
	}
	// Same request, defaults spelled out and fields reordered: the
	// canonical codec must land on the same cache key.
	resp, body2 := post(t, url, `{"experiment":"count","spec":{"scale":0,"seed":7},"params":null}`)
	if resp.Header.Get("X-Stackd-Cache") != "hit" {
		t.Fatalf("second POST not a hit: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if body1 != body2 {
		t.Fatalf("hit body diverged:\n%s\n%s", body1, body2)
	}
	if !strings.Contains(body1, `"experiment":"count"`) || !strings.Contains(body1, `"seed":7`) {
		t.Fatalf("unexpected body: %s", body1)
	}
	// A different spec is a fresh miss.
	resp, _ = post(t, url, `{"spec":{"seed":8}}`)
	if resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("distinct spec served from cache: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner executed %d times, want 2", got)
	}
	if reg.CounterValue("stackd_cache_hits") != 1 || reg.CounterValue("stackd_requests") != 3 {
		t.Fatalf("counters: hits=%d requests=%d",
			reg.CounterValue("stackd_cache_hits"), reg.CounterValue("stackd_requests"))
	}
}

func TestSingleflightMerge(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	s := New(Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, gate)},
		Obs:         reg,
		MaxSolves:   2,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	bodies := make([]string, n)
	states := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`)
			bodies[i] = body
			states[i] = resp.Header.Get("X-Stackd-Cache")
		}(i)
	}
	// Release the leader only once every request has joined its flight
	// (the followers waiting on done, the leader inside the gate).
	for flightWaiters(s) < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical requests, want exactly 1", got, n)
	}
	var miss, merged int
	for i := range bodies {
		if bodies[i] != bodies[0] {
			t.Fatalf("bodies diverged:\n%s\n%s", bodies[0], bodies[i])
		}
		switch states[i] {
		case "miss":
			miss++
		case "merged":
			merged++
		default:
			t.Fatalf("request %d: cache state %q", i, states[i])
		}
	}
	if miss != 1 || merged != n-1 {
		t.Fatalf("miss=%d merged=%d, want 1/%d", miss, merged, n-1)
	}
	if reg.CounterValue("stackd_inflight_merged") != n-1 {
		t.Fatalf("stackd_inflight_merged = %d", reg.CounterValue("stackd_inflight_merged"))
	}
}

// TestLeaderDisconnectKeepsFollowers: the client whose request started
// a flight hangs up mid-solve; the solve runs on and every merged
// follower still gets the 200.
func TestLeaderDisconnectKeepsFollowers(t *testing.T) {
	const followers = 4
	var runs atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Experiments: []core.Experiment{countingExperiment("count", &runs, gate)}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/count"
	const body = `{"spec":{"seed":1}}`

	leaderCtx, hangUp := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	statuses := make([]int, followers)
	states := make([]string, followers)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, url, body)
			statuses[i] = resp.StatusCode
			states[i] = resp.Header.Get("X-Stackd-Cache")
		}(i)
	}
	for flightWaiters(s) < 1+followers {
		time.Sleep(time.Millisecond)
	}
	hangUp()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader request completed before the gate opened")
	}
	for flightWaiters(s) > followers {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := range statuses {
		if statuses[i] != http.StatusOK || states[i] != "merged" {
			t.Errorf("follower %d: status %d, cache %q", i, statuses[i], states[i])
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times, want 1", got)
	}
}

// TestLastWaiterCancelsFlight: once every client of a flight has hung
// up, its solve is cancelled, and the next identical request starts a
// fresh run.
func TestLastWaiterCancelsFlight(t *testing.T) {
	started := make(chan struct{}, 2)
	cancelled := make(chan struct{}, 2)
	exp := core.Experiment{
		Name: "hang",
		Doc:  "blocks until cancelled",
		Runner: func(ctx context.Context, _ core.RunSpec, _ any) (any, error) {
			started <- struct{}{}
			<-ctx.Done()
			cancelled <- struct{}{}
			return nil, ctx.Err()
		},
	}
	s := New(Config{Experiments: []core.Experiment{exp}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/hang"

	ctx, hangUp := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(`{}`))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				t.Error("request completed although its flight never finished")
			}
		}()
	}
	<-started
	for flightWaiters(s) < 2 {
		time.Sleep(time.Millisecond)
	}
	hangUp()
	wg.Wait()
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("flight not cancelled after its last waiter left")
	}

	// The retired flight is not rejoined: a new request runs afresh.
	ctx2, hangUp2 := context.WithCancel(context.Background())
	defer hangUp2()
	go func() {
		req, _ := http.NewRequestWithContext(ctx2, http.MethodPost, url, strings.NewReader(`{}`))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request after a cancelled flight did not start a new run")
	}
	hangUp2()
	<-cancelled
}

func TestShedUnderLoad(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	s := New(Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, gate)},
		Obs:         reg,
		MaxSolves:   1,
		RetryAfter:  3 * time.Second,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/count"

	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, _ := post(t, url, `{"spec":{"seed":1}}`); resp.StatusCode != http.StatusOK {
			t.Errorf("occupant got %d", resp.StatusCode)
		}
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The only solve slot is held; a distinct request must be shed, not
	// queued.
	resp, body := post(t, url, `{"spec":{"seed":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if reg.CounterValue("stackd_shed") != 1 {
		t.Fatalf("stackd_shed = %d", reg.CounterValue("stackd_shed"))
	}
	close(gate)
	<-done
	// Capacity freed: the shed spec now runs (sheds are never cached).
	if resp, _ := post(t, url, `{"spec":{"seed":2}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed got %d", resp.StatusCode)
	}
}

func TestErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	exp := core.Experiment{
		Name: "flaky",
		Doc:  "fails once",
		Runner: func(ctx context.Context, _ core.RunSpec, _ any) (any, error) {
			if calls.Add(1) == 1 {
				return nil, context.DeadlineExceeded
			}
			return "ok", nil
		},
	}
	s := New(Config{Experiments: []core.Experiment{exp}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/flaky"

	if resp, body := post(t, url, ``); resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(body, "error") {
		t.Fatalf("first POST: %d %s", resp.StatusCode, body)
	}
	resp, _ := post(t, url, ``)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("error was cached: %d %q", resp.StatusCode, resp.Header.Get("X-Stackd-Cache"))
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, _ := post(t, ts.URL+"/v1/experiments/fig99", ``); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig5", `{"leases":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig5", `{"spec":{"method":"jacobi"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad method: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig5", `{"experiment":"fig8"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("name mismatch: %d", resp.StatusCode)
	}
	// Out of range: refused, not run as the default scale or grid.
	for _, tc := range []struct{ name, body string }{
		{"memory-perf", `{"spec":{"scale":-1},"params":{"benchmark":"gauss"}}`},
		{"fig6", `{"spec":{"grid":-5}}`},
	} {
		if resp, body := post(t, ts.URL+"/v1/experiments/"+tc.name, tc.body); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(body, "out of range") {
			t.Errorf("%s %s: %d %s", tc.name, tc.body, resp.StatusCode, body)
		}
	}
}

// TestOversizedTable4Rejected: a table4 body asking for billions of
// instructions per profile gets a JSON 500 before anything is
// allocated, and the server keeps answering. Uncapped, the request
// asked Generate for a slice of ~96 GB and the runtime's fatal
// out-of-memory error took the whole process down.
func TestOversizedTable4Rejected(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/experiments/table4", `{"params":{"instructions":4000000000}}`)
	if resp.StatusCode != http.StatusInternalServerError ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") ||
		!strings.Contains(body, `"error"`) || !strings.Contains(body, "exceeds the maximum") {
		t.Fatalf("oversized table4: %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil || health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized table4: %v %v", err, health)
	}
	health.Body.Close()
}

func TestListAndMetricsAndHealth(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"memory-perf", "fig5", "table4", "managed-logic-thermal", "campaign"} {
		if !strings.Contains(string(list), `"name":"`+name+`"`) {
			t.Errorf("catalog listing missing %s", name)
		}
	}
	if !strings.Contains(string(list), `"capacity_mb":"number"`) {
		t.Errorf("listing lacks params schema: %s", list)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "stackd_requests") {
		t.Errorf("metrics snapshot lacks stackd family: %s", metrics)
	}
}

// TestGracefulShutdownDrain pins the drain contract: Shutdown waits
// for the in-flight solve, which completes and is delivered to its
// client.
func TestGracefulShutdownDrain(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Experiments: []core.Experiment{countingExperiment("count", &runs, gate)}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	type result struct {
		status int
		body   string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`)
		inflight <- result{resp.StatusCode, body}
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- ts.Config.Shutdown(context.Background()) }()
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned before the in-flight request drained: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-inflight
	if res.status != http.StatusOK || !strings.Contains(res.body, `"seed":1`) {
		t.Fatalf("drained request got %d %s", res.status, res.body)
	}
}

// TestDrainWithFollowers: Shutdown also waits for the followers merged
// onto an in-flight solve, and each gets the leader's verdict.
func TestDrainWithFollowers(t *testing.T) {
	const n = 3
	var runs atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Experiments: []core.Experiment{countingExperiment("count", &runs, gate)}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, _ := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`)
			statuses <- resp.StatusCode
		}()
	}
	for flightWaiters(s) < n {
		time.Sleep(time.Millisecond)
	}
	shutdown := make(chan error, 1)
	go func() { shutdown <- ts.Config.Shutdown(context.Background()) }()
	close(gate)
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("drained request got %d", st)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("runner executed %d times, want 1", runs.Load())
	}
}

func TestCacheEviction(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{
		Experiments:  []core.Experiment{countingExperiment("count", &runs, nil)},
		CacheEntries: 1,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/experiments/count"

	post(t, url, `{"spec":{"seed":1}}`)
	post(t, url, `{"spec":{"seed":2}}`) // evicts seed 1
	resp, _ := post(t, url, `{"spec":{"seed":1}}`)
	if resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("evicted entry still served: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if runs.Load() != 3 {
		t.Fatalf("runner executed %d times, want 3", runs.Load())
	}
}
