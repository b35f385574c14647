package thermal

import (
	"container/list"
	"context"
	"sync"
)

// WorkspaceCache pools Workspaces across solves so callers that see the
// same stack shape repeatedly — a long-running service handling many
// requests, a sweep revisiting one geometry at several solver settings
// — skip re-discretization. Entries are keyed by a caller-chosen
// string; the contract is that every stack solved under one key is
// built identically (same geometry, materials, and power sources), so
// reusing the first discretization is exact. The iteration schedule is
// a per-solve option, not part of the key: one cached workspace serves
// line-SOR and multigrid solves alike.
//
// Every solve resets the workspace to the ambient initial guess, so a
// pooled solve is bit-identical to a fresh thermal.Solve of the same
// stack. Between solves an entry keeps only its discretization and
// operators (conductances, capacities, the multigrid coarse operators):
// the iteration buffers are dropped when each solve returns and
// reallocated by the next, so idle entries cost a fraction of a live
// solve's memory. Solves sharing a key serialize (a Workspace is not
// safe for concurrent use); distinct keys solve concurrently. The
// cache is safe for concurrent use and evicts least-recently-used
// entries beyond its bound; an evicted entry's in-flight solve
// finishes on its workspace, which is then left to the garbage
// collector.
type WorkspaceCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*wsEntry
	lru     *list.List // front = most recently used; values are *wsEntry
}

// wsEntry serializes solves on its shared workspace with a
// capacity-one token channel rather than a mutex: a solve holds the
// token across the whole Workspace.Solve, and a mutex held across a
// blocking solver run is exactly what the locksafe analyzer bans. The
// channel form also lets a waiter give up when its context is
// canceled instead of queueing on a mutex it can no longer use.
type wsEntry struct {
	sem  chan struct{} // capacity 1; the token serializes solves
	ws   *Workspace    // built under the token on first solve
	key  string
	elem *list.Element
}

// lock acquires the entry's solve token, failing fast when ctx ends
// first. release returns it.
func (e *wsEntry) lock(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *wsEntry) release() { <-e.sem }

// DefaultWorkspaceCacheSize bounds a cache built with size <= 0.
const DefaultWorkspaceCacheSize = 8

// NewWorkspaceCache returns a cache holding at most max workspaces
// (<= 0 selects DefaultWorkspaceCacheSize).
func NewWorkspaceCache(max int) *WorkspaceCache {
	if max <= 0 {
		max = DefaultWorkspaceCacheSize
	}
	return &WorkspaceCache{
		max:     max,
		entries: map[string]*wsEntry{},
		lru:     list.New(),
	}
}

// Solve computes the steady-state field of s, reusing the cached
// discretization for key when one exists and caching this one
// otherwise. s must be built identically to every other stack solved
// under key. Semantics match thermal.Solve exactly.
func (c *WorkspaceCache) Solve(ctx context.Context, key string, s *Stack, opt SolveOptions) (*Field, error) {
	if c == nil {
		return Solve(ctx, s, opt)
	}
	e, reused := c.acquire(key)
	if reused {
		opt.Obs.Counter("thermal_ws_reused").Inc()
	}

	if err := e.lock(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	if e.ws == nil {
		ws, err := NewWorkspace(s)
		if err != nil {
			c.drop(e)
			return nil, err
		}
		e.ws = ws
	}
	f, err := e.ws.Solve(ctx, opt)
	e.ws.releaseBuffers()
	return f, err
}

// Len reports the number of cached workspaces.
func (c *WorkspaceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close evicts every entry. Solves in flight finish on the workspaces
// they hold. The cache remains usable; later solves start cold.
func (c *WorkspaceCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*wsEntry{}
	c.lru.Init()
}

// acquire returns the entry for key (creating it if needed, and
// evicting least-recently-used entries to make room) and whether the
// entry already existed.
func (c *WorkspaceCache) acquire(key string) (e *wsEntry, reused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		c.lru.MoveToFront(e.elem)
		return e, true
	}
	e = &wsEntry{key: key, sem: make(chan struct{}, 1)}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.max {
		back := c.lru.Back()
		old := back.Value.(*wsEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
	}
	return e, false
}

// drop removes an entry whose workspace failed to build.
func (c *WorkspaceCache) drop(e *wsEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	}
}
