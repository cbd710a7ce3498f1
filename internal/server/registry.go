package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"maybms/internal/core"
	"maybms/internal/wsd"
)

// newBackend builds a session's engine by backend name: "" and "naive"
// select the naive engine (explicit worlds, at most maxWorlds of them),
// "compact" the world-set-decomposition engine (merges bounded by
// maxWorlds). 0 keeps the engine's default bound. Statements run through
// core's runner, serialized by the session lock.
func newBackend(name string, weighted bool, maxWorlds int) (core.Engine, error) {
	switch name {
	case "", "naive":
		s := core.NewSession(weighted)
		if maxWorlds > 0 {
			s.MaxWorlds = maxWorlds
		}
		return s, nil
	case "compact":
		d := wsd.New(weighted)
		if maxWorlds > 0 {
			d.MergeLimit = maxWorlds
		}
		return d, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want naive or compact)", name)
	}
}

// session is one named database plus its execution lock. The lock is a
// 1-slot channel rather than a mutex so waiters can abandon the wait when
// their request context expires.
//
// A session is published to the registry *before* its engine is
// constructed (construction can be arbitrarily slow and must not happen
// under the registry mutex); ready closes once engine/initErr are set,
// and nothing touches engine before awaiting ready.
type session struct {
	name string
	lock chan struct{}
	// ready closes when initialization finished; engine and initErr are
	// immutable afterwards.
	ready   chan struct{}
	engine  core.Engine
	initErr error
	// lastUsed is the unix-nano time of the last completed statement,
	// guarded by the registry mutex.
	lastUsed time.Time
}

// acquire takes the session's execution lock, honouring ctx.
func (s *session) acquire(ctx context.Context) error {
	select {
	case s.lock <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquire takes the lock only if it is free (used by the evictor so it
// never waits behind a running statement).
func (s *session) tryAcquire() bool {
	select {
	case s.lock <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *session) release() { <-s.lock }

// await blocks until the session's engine finished constructing (or ctx
// expires) and returns the construction error, if any.
func (s *session) await(ctx context.Context) error {
	select {
	case <-s.ready:
		return s.initErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// initialized reports whether construction has finished (without
// blocking).
func (s *session) initialized() bool {
	select {
	case <-s.ready:
		return true
	default:
		return false
	}
}

// registry is the concurrent map of live sessions.
type registry struct {
	mu          sync.Mutex
	sessions    map[string]*session
	maxSessions int
	now         func() time.Time // swappable for tests
	// testHookAfterResolve, when non-nil, runs in acquireOwned between
	// session resolution and lock acquisition — the exact window of the
	// evict-vs-acquire race, which regression tests widen deterministically
	// by evicting or closing the session here.
	testHookAfterResolve func(attempt int)
}

func newRegistry(maxSessions int) *registry {
	if maxSessions < 1 {
		maxSessions = DefaultMaxSessions
	}
	return &registry{
		sessions:    map[string]*session{},
		maxSessions: maxSessions,
		now:         time.Now,
	}
}

// get returns the session under name, creating it with create when
// absent. The registry mutex guards only the map: a new session is
// published as a placeholder first and create() runs outside the lock, so
// one slow engine construction never head-of-line-blocks other sessions'
// lookups. Callers must session.await() before touching the engine; get
// itself returns as soon as the session is mapped.
func (r *registry) get(name string, create func() (core.Engine, error)) (*session, error) {
	r.mu.Lock()
	if s, ok := r.sessions[name]; ok {
		r.mu.Unlock()
		return s, nil
	}
	if len(r.sessions) >= r.maxSessions {
		r.mu.Unlock()
		return nil, fmt.Errorf("session limit reached (%d live sessions)", r.maxSessions)
	}
	s := &session{
		name:     name,
		lock:     make(chan struct{}, 1),
		ready:    make(chan struct{}),
		lastUsed: r.now(),
	}
	r.sessions[name] = s
	r.mu.Unlock()

	e, err := create()
	s.engine, s.initErr = e, err
	if err != nil {
		// Unpublish (unless close/evict already did, or a successor took
		// the name) so the next request retries construction.
		r.mu.Lock()
		if r.sessions[name] == s {
			delete(r.sessions, name)
		}
		r.mu.Unlock()
	}
	close(s.ready)
	return s, nil
}

// acquireOwned resolves the session under name, waits for its engine,
// takes its execution lock, and re-verifies — identity check via lookup —
// that the session is still the one registered under its name. Without
// the recheck a waiter blocked in acquire() can win the lock *after* an
// idle-eviction sweep or an explicit close deleted the session, and would
// then execute its statement against an orphaned engine whose effects
// silently vanish (a concurrent request meanwhile recreates the name with
// a fresh engine). On mismatch the lock is released and the whole
// resolution retries. The caller must release() the returned session.
func (r *registry) acquireOwned(ctx context.Context, name string, create func() (core.Engine, error)) (*session, error) {
	for attempt := 0; ; attempt++ {
		s, err := r.get(name, create)
		if err != nil {
			return nil, err
		}
		if err := s.await(ctx); err != nil {
			return nil, err
		}
		if hook := r.testHookAfterResolve; hook != nil {
			hook(attempt)
		}
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		if r.lookup(name) == s {
			return s, nil
		}
		s.release() // evicted or closed between get and acquire; retry
	}
}

// lookup returns the session currently registered under name (nil if
// none).
func (r *registry) lookup(name string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[name]
}

// touch records that the session just executed a statement.
func (r *registry) touch(s *session) {
	r.mu.Lock()
	s.lastUsed = r.now()
	r.mu.Unlock()
}

// close removes the named session; it reports whether one existed. A
// running statement keeps its (now unregistered) session alive until it
// finishes; subsequent requests see a fresh session.
func (r *registry) close(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[name]; !ok {
		return false
	}
	delete(r.sessions, name)
	return true
}

// closeAll drops every session (shutdown).
func (r *registry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = map[string]*session{}
}

// list snapshots the live sessions under the mutex, then renders them
// outside it: Engine.Worlds can be arbitrarily expensive (a big.Int
// decimal rendering on compact sessions), and holding the registry lock
// through it would head-of-line-block every concurrent session lookup.
// Engine calls are serialized by the session lock, so the world count is
// read only when the lock is free; a session mid-statement reports "busy"
// and one still constructing reports "initializing".
func (r *registry) list() []SessionInfo {
	r.mu.Lock()
	now := r.now()
	type snap struct {
		s    *session
		idle time.Duration
	}
	snaps := make([]snap, 0, len(r.sessions))
	for _, s := range r.sessions {
		snaps = append(snaps, snap{s: s, idle: now.Sub(s.lastUsed)})
	}
	r.mu.Unlock()

	out := make([]SessionInfo, 0, len(snaps))
	for _, sn := range snaps {
		s := sn.s
		// A failed construction (initErr set, engine nil) can linger in a
		// snapshot taken before get() unpublished it; render it like an
		// uninitialized session rather than dereferencing a nil engine.
		if !s.initialized() || s.initErr != nil {
			out = append(out, SessionInfo{
				Name:    s.name,
				Backend: "initializing",
				Worlds:  "initializing",
				IdleMs:  sn.idle.Milliseconds(),
			})
			continue
		}
		worlds := "busy"
		if s.tryAcquire() {
			worlds = s.engine.Worlds()
			s.release()
		}
		kind, _ := s.engine.Kind()
		// Counters read atomics, so a busy session reports them too.
		hits, misses := s.engine.PlanCacheCounts()
		info := SessionInfo{
			Name:      s.name,
			Backend:   kind,
			Worlds:    worlds,
			IdleMs:    sn.idle.Milliseconds(),
			PlanCache: &PlanCacheCounters{Hits: hits, Misses: misses},
		}
		if d, ok := s.engine.(*wsd.WSD); ok {
			info.Compact = &CompactCounters{Merges: d.MergeCount(), Routes: d.RouteCounts()}
		}
		out = append(out, info)
	}
	return out
}

// len returns the number of live sessions.
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// evictIdle removes sessions idle longer than timeout, skipping any with
// a running statement or an in-flight engine construction. It returns
// the number evicted.
func (r *registry) evictIdle(timeout time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	evicted := 0
	for name, s := range r.sessions {
		if now.Sub(s.lastUsed) < timeout {
			continue
		}
		if !s.initialized() {
			continue // still constructing; it will be touched on completion
		}
		if !s.tryAcquire() {
			continue // mid-statement; it will be touched on completion
		}
		delete(r.sessions, name)
		s.release()
		evicted++
	}
	return evicted
}
