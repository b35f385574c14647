// Package serve implements stackd's HTTP surface: every experiment in
// the core catalog exposed uniformly at POST /v1/experiments/<name>,
// with three layers between the socket and the solver —
//
//   - a canonical-request LRU cache: bodies are decoded, re-encoded in
//     canonical form (internal/canon), and the SHA-256 of those bytes
//     is the cache key, so semantically equal requests (defaults
//     spelled out or omitted, fields reordered) hit the same entry;
//   - singleflight dedup: identical requests arriving while the first
//     is still solving wait for that run instead of starting their own;
//   - solve admission: a bounded semaphore sheds excess distinct
//     requests with 429 and a Retry-After hint instead of queueing
//     unbounded solver work.
//
// Thermal discretizations are pooled across requests through a shared
// thermal.WorkspaceCache, and everything is instrumented through
// internal/obs (stackd_requests, stackd_cache_hits,
// stackd_inflight_merged, stackd_shed, per-experiment latency
// histograms).
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"diestack/internal/canon"
	"diestack/internal/core"
	"diestack/internal/obs"
	"diestack/internal/thermal"
)

const (
	// DefaultCacheEntries bounds the result cache when Config leaves it
	// zero.
	DefaultCacheEntries = 256
	// DefaultRetryAfter is the Retry-After hint on shed requests.
	DefaultRetryAfter = time.Second
	// maxBodyBytes bounds request bodies; experiment specs are tiny.
	maxBodyBytes = 1 << 20
)

// Config parameterizes a Server. The zero value is usable: the full
// core catalog, a 256-entry cache, one solve slot per CPU, and a
// private metrics registry.
type Config struct {
	// Experiments is the catalog to expose (nil = core.Experiments()).
	Experiments []core.Experiment
	// CacheEntries bounds the result cache (0 = DefaultCacheEntries,
	// negative disables caching).
	CacheEntries int
	// MaxSolves bounds concurrently executing experiments; requests
	// beyond the bound are shed with 429 (0 = runtime.NumCPU()).
	MaxSolves int
	// RetryAfter is the hint sent with shed responses (0 =
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// Obs receives the stackd_* instruments and every experiment's
	// substrate metrics. Nil creates a private registry so /v1/metrics
	// always works.
	Obs *obs.Registry
	// Workspaces pools thermal discretizations across requests. Nil
	// creates a cache of thermal.DefaultWorkspaceCacheSize owned by the
	// server (closed by Close).
	Workspaces *thermal.WorkspaceCache
}

// Server is the stackd handler. Create with New; it implements
// http.Handler.
type Server struct {
	mux         *http.ServeMux
	experiments map[string]core.Experiment
	order       []core.Experiment
	reg         *obs.Registry
	ws          *thermal.WorkspaceCache
	ownWS       bool
	slots       chan struct{}
	retryAfter  time.Duration
	cacheMax    int

	mu      sync.Mutex
	lru     *list.List // *cacheEntry, front = most recent
	idx     map[string]*list.Element
	flights map[string]*flight
}

type cacheEntry struct {
	key  string
	body []byte
}

// flight is one in-progress run; identical requests arriving while it
// is open wait on done and replay status/body. cancel stops the run;
// it fires only when every waiter — leader and followers — has gone,
// so one client's disconnect never fails the others.
type flight struct {
	cancel context.CancelFunc
	// waiters counts the requests still attached; guarded by
	// Server.mu.
	waiters int
	done    chan struct{}
	status  int
	body    []byte
	shed    bool
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	exps := cfg.Experiments
	if exps == nil {
		exps = core.Experiments()
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxSolves := cfg.MaxSolves
	if maxSolves <= 0 {
		maxSolves = runtime.NumCPU()
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	cacheMax := cfg.CacheEntries
	if cacheMax == 0 {
		cacheMax = DefaultCacheEntries
	}
	s := &Server{
		experiments: make(map[string]core.Experiment, len(exps)),
		order:       exps,
		reg:         reg,
		ws:          cfg.Workspaces,
		ownWS:       cfg.Workspaces == nil,
		slots:       make(chan struct{}, maxSolves),
		retryAfter:  retryAfter,
		cacheMax:    cacheMax,
		lru:         list.New(),
		idx:         map[string]*list.Element{},
		flights:     map[string]*flight{},
	}
	if s.ownWS {
		s.ws = thermal.NewWorkspaceCache(thermal.DefaultWorkspaceCacheSize)
	}
	for _, e := range exps {
		s.experiments[e.Name] = e
	}
	// Pre-register the family so a snapshot taken before the first
	// request still carries explicit stackd_* zeros.
	reg.Counter("stackd_requests")
	reg.Counter("stackd_cache_hits")
	reg.Counter("stackd_inflight_merged")
	reg.Counter("stackd_shed")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/experiments/{name}", s.handleRun)
	return s
}

// ServeHTTP dispatches to the stackd routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the server-owned workspace cache (a no-op when the
// caller supplied one).
func (s *Server) Close() {
	if s.ownWS {
		s.ws.Close()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	Name   string            `json:"name"`
	Doc    string            `json:"doc"`
	Params map[string]string `json:"params,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	out := make([]experimentInfo, 0, len(s.order))
	for _, e := range s.order {
		out = append(out, experimentInfo{Name: e.Name, Doc: e.Doc, Params: e.ParamsSchema()})
	}
	s.writeJSON(w, http.StatusOK, "", mustJSON(out))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, "", mustJSON(s.reg.Snapshot(false)))
}

// runResponse is the body of a successful POST: the experiment's name
// and its native result value.
type runResponse struct {
	Experiment string `json:"experiment"`
	Value      any    `json:"value"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("stackd_requests").Inc()
	exp, ok := s.experiments[r.PathValue("name")]
	if !ok {
		s.writeJSON(w, http.StatusNotFound, "",
			errBody(fmt.Sprintf("unknown experiment %q; GET /v1/experiments lists the catalog", r.PathValue("name"))))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, "", errBody("reading body: "+err.Error()))
		return
	}
	if len(body) == 0 {
		// An empty POST runs the experiment with an all-default spec.
		body = []byte("{}")
	}
	req, err := exp.DecodeRequest(body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, "", errBody(err.Error()))
		return
	}
	canonical, err := exp.EncodeRequest(req)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, "", errBody(err.Error()))
		return
	}
	key := canon.HashBytes(canonical)

	if cached, ok := s.cacheGet(key); ok {
		s.reg.Counter("stackd_cache_hits").Inc()
		s.writeJSON(w, http.StatusOK, "hit", cached)
		return
	}

	// Singleflight: one runner per canonical request, everyone else
	// waits for its verdict.
	s.mu.Lock()
	if f := s.flights[key]; f != nil {
		f.waiters++
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-r.Context().Done():
			// Client gone; nothing useful to write.
			s.leave(key, f)
			return
		}
		s.writeFlight(w, f, true)
		return
	}
	// The run keeps the leader's request values but not its
	// cancellation, which the waiter count takes over.
	ctx, cancel := context.WithCancel(context.WithoutCancel(r.Context()))
	f := &flight{cancel: cancel, waiters: 1, done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	// The leader's own disconnect counts as one waiter leaving.
	defer context.AfterFunc(r.Context(), func() { s.leave(key, f) })()

	// Admission: never queue solver work behind the bound — shed.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		s.reg.Counter("stackd_shed").Inc()
		f.status = http.StatusTooManyRequests
		f.shed = true
		f.body = errBody("server at solve capacity; retry later")
		s.closeFlight(key, f)
		s.writeFlight(w, f, false)
		return
	}

	req.Spec.Obs = s.reg
	req.Spec.Workspaces = s.ws
	start := time.Now()
	res, err := exp.Run(ctx, req)
	s.reg.Histogram("stackd_latency_"+exp.Name, 0, 60, 120).Observe(time.Since(start).Seconds())
	if err != nil {
		f.status = http.StatusInternalServerError
		f.body = errBody(err.Error())
		s.closeFlight(key, f)
		s.writeFlight(w, f, false)
		return
	}
	out, err := json.Marshal(runResponse{Experiment: exp.Name, Value: res.Value})
	if err != nil {
		f.status = http.StatusInternalServerError
		f.body = errBody("encoding result: " + err.Error())
		s.closeFlight(key, f)
		s.writeFlight(w, f, false)
		return
	}
	f.status = http.StatusOK
	f.body = append(out, '\n')
	s.cachePut(key, f.body)
	s.closeFlight(key, f)
	s.writeJSON(w, http.StatusOK, "miss", f.body)
}

// closeFlight publishes the flight's verdict and retires it; errors
// and sheds are deliberately not cached, so the next identical request
// runs fresh.
func (s *Server) closeFlight(key string, f *flight) {
	s.mu.Lock()
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	f.cancel()
	close(f.done)
}

// leave detaches one disconnected waiter from f. The last one out
// cancels the run and retires the flight, so a request arriving
// afterwards starts a fresh run instead of joining a cancelled one.
func (s *Server) leave(key string, f *flight) {
	s.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	if last {
		f.cancel()
	}
}

// writeFlight replays a finished flight to one waiter. merged marks
// followers (they drafted behind the leader's run).
func (s *Server) writeFlight(w http.ResponseWriter, f *flight, merged bool) {
	state := ""
	if merged && f.status == http.StatusOK {
		s.reg.Counter("stackd_inflight_merged").Inc()
		state = "merged"
	}
	if f.shed {
		if merged {
			s.reg.Counter("stackd_shed").Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
	}
	s.writeJSON(w, f.status, state, f.body)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) cacheGet(key string) ([]byte, bool) {
	if s.cacheMax < 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (s *Server) cachePut(key string, body []byte) {
	if s.cacheMax < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		el.Value.(*cacheEntry).body = body
		s.lru.MoveToFront(el)
		return
	}
	s.idx[key] = s.lru.PushFront(&cacheEntry{key: key, body: body})
	for s.lru.Len() > s.cacheMax {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.idx, el.Value.(*cacheEntry).key)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set("X-Stackd-Cache", cacheState)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func errBody(msg string) []byte {
	return append(mustJSON(map[string]string{"error": msg}), '\n')
}

// mustJSON marshals values the server itself constructs; a failure is
// a programming error, not a request error.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling %T: %v", v, err))
	}
	return append(b, '\n')
}
