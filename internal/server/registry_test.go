package server

// registry_test.go: the session registry's concurrency contracts — backend
// construction and world-count rendering happen outside the global mutex,
// and a lock acquisition that raced an idle-eviction sweep (or an explicit
// close) retries on a freshly registered session instead of executing
// against an orphaned backend.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/sqlparse"
)

// testEngine is a minimal fake core.Engine with an injectable world-count
// renderer.
type testEngine struct {
	worldsFn func() string
}

func (e *testEngine) Kind() (string, string)                             { return "stub", "" }
func (e *testEngine) Predict(*strings.Builder, sqlparse.Statement) error { return nil }
func (e *testEngine) SetStatement(func() error, *obs.Trace)              {}
func (e *testEngine) Snapshot() func()                                   { return func() {} }
func (e *testEngine) PlanCacheCounts() (uint64, uint64)                  { return 0, 0 }
func (e *testEngine) Run(sqlparse.Statement) (*core.Result, error) {
	return &core.Result{Kind: core.ResultOK}, nil
}
func (e *testEngine) Worlds() string {
	if e.worldsFn != nil {
		return e.worldsFn()
	}
	return "1"
}

func instantCreate() (core.Engine, error) { return &testEngine{}, nil }

// fakeClock is a race-safe manual clock for the registry's now hook.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestSlowCreateDoesNotBlockOtherSessions: one slow backend construction
// must not head-of-line-block another session's lookup — construction runs
// outside the registry mutex.
func TestSlowCreateDoesNotBlockOtherSessions(t *testing.T) {
	reg := newRegistry(0)
	ctx := context.Background()
	unblock := make(chan struct{})
	slowStarted := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		s, err := reg.acquireOwned(ctx, "slow", func() (core.Engine, error) {
			close(slowStarted)
			<-unblock
			return &testEngine{}, nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		s.release()
	}()
	<-slowStarted

	// The slow construction is in flight; an unrelated session must
	// resolve promptly.
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		s, err := reg.acquireOwned(ctx, "fast", instantCreate)
		if err != nil {
			t.Error(err)
			return
		}
		s.release()
	}()
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("unrelated session blocked behind a slow backend construction")
	}

	// A second waiter on the slow session awaits the in-flight
	// construction instead of constructing again.
	waiterDone := make(chan *session, 1)
	go func() {
		s, err := reg.acquireOwned(ctx, "slow", func() (core.Engine, error) {
			t.Error("second construction for an in-flight session")
			return &testEngine{}, nil
		})
		if err != nil {
			t.Error(err)
		}
		waiterDone <- s
	}()
	close(unblock)
	<-slowDone
	if s := <-waiterDone; s != nil {
		s.release()
	}
}

// TestListRendersOutsideLock: list must snapshot under the mutex and call
// backend.worlds() outside it, so a slow rendering cannot block other
// requests' session lookups; sessions mid-statement report "busy" and
// sessions still constructing report "initializing" — neither blocks.
func TestListRendersOutsideLock(t *testing.T) {
	reg := newRegistry(0)
	ctx := context.Background()

	rendering := make(chan struct{})
	unblockRender := make(chan struct{})
	var renderOnce sync.Once
	s, err := reg.acquireOwned(ctx, "slowworlds", func() (core.Engine, error) {
		return &testEngine{worldsFn: func() string {
			renderOnce.Do(func() { close(rendering) })
			<-unblockRender
			return "42"
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.release()

	listDone := make(chan []SessionInfo, 1)
	go func() {
		listDone <- reg.list()
	}()
	<-rendering

	// list is blocked inside worlds(); the registry mutex must be free.
	getDone := make(chan struct{})
	go func() {
		defer close(getDone)
		o, err := reg.acquireOwned(ctx, "other", instantCreate)
		if err != nil {
			t.Error(err)
			return
		}
		o.release()
	}()
	select {
	case <-getDone:
	case <-time.After(5 * time.Second):
		t.Fatal("session lookup blocked behind a slow world-count rendering")
	}
	close(unblockRender)
	<-listDone

	// A busy session (lock held) renders as "busy" without waiting.
	s, err = reg.acquireOwned(ctx, "slowworlds", instantCreate)
	if err != nil {
		t.Fatal(err)
	}
	busyInfos := reg.list()
	s.release()
	found := false
	for _, info := range busyInfos {
		if info.Name == "slowworlds" {
			found = true
			if info.Worlds != "busy" {
				t.Errorf("busy session rendered %q, want busy", info.Worlds)
			}
		}
	}
	if !found {
		t.Fatal("busy session missing from list")
	}

	// An initializing session is listed without blocking on its
	// construction.
	initStarted := make(chan struct{})
	unblockInit := make(chan struct{})
	go func() {
		_, _ = reg.get("initializing", func() (core.Engine, error) {
			close(initStarted)
			<-unblockInit
			return &testEngine{}, nil
		})
	}()
	<-initStarted
	infos := reg.list()
	close(unblockInit)
	found = false
	for _, info := range infos {
		if info.Name == "initializing" {
			found = true
			if info.Worlds != "initializing" {
				t.Errorf("initializing session rendered %q", info.Worlds)
			}
		}
	}
	if !found {
		t.Fatal("initializing session missing from list")
	}
}

// TestListSurvivesFailedConstruction: a session whose backend
// construction failed (initErr set, backend nil) can linger in a list()
// snapshot taken before get() unpublished it; rendering it must not
// dereference the nil backend.
func TestListSurvivesFailedConstruction(t *testing.T) {
	reg := newRegistry(0)
	failed := &session{
		name:     "failed",
		lock:     make(chan struct{}, 1),
		ready:    make(chan struct{}),
		initErr:  errors.New("construction failed"),
		lastUsed: reg.now(),
	}
	close(failed.ready)
	reg.mu.Lock()
	reg.sessions["failed"] = failed
	reg.mu.Unlock()

	infos := reg.list() // must not panic
	found := false
	for _, info := range infos {
		if info.Name == "failed" {
			found = true
			if info.Backend != "initializing" {
				t.Errorf("failed session rendered backend %q", info.Backend)
			}
		}
	}
	if !found {
		t.Fatal("failed session missing from list")
	}
}

// TestMaxRowsValidation: the request's max_rows field is validated — any
// value below -1 is rejected before the statement runs — and a client can
// lower the server's row cap but never raise one the operator configured;
// -1 lifts the bound only under the default (or an explicitly unbounded)
// cap.
func TestMaxRowsValidation(t *testing.T) {
	cases := []struct {
		cfg, req int
		want     int
		wantErr  bool
	}{
		{cfg: 0, req: 0, want: DefaultMaxRows}, // defaults all the way
		{cfg: 0, req: 7, want: 7},              // lower the default
		{cfg: 0, req: -1, want: -1},            // default cap may be lifted
		{cfg: 0, req: 20000, want: 20000},      // and raised
		{cfg: 100, req: 0, want: 100},          // configured cap
		{cfg: 100, req: 7, want: 7},            // lowered
		{cfg: 100, req: 500, want: 100},        // never raised
		{cfg: 100, req: -1, want: 100},         // never lifted
		// An explicit cap equal to the default value is still a
		// configured cap — not liftable.
		{cfg: DefaultMaxRows, req: -1, want: DefaultMaxRows},
		{cfg: DefaultMaxRows, req: 20000, want: DefaultMaxRows},
		{cfg: DefaultMaxRows, req: 7, want: 7},
		{cfg: -1, req: 0, want: -1},         // operator disabled the bound
		{cfg: -1, req: 7, want: 7},          // client may still bound
		{cfg: -1, req: -1, want: -1},        // explicit unbounded
		{cfg: 0, req: -2, wantErr: true},    // invalid
		{cfg: 100, req: -17, wantErr: true}, // invalid
	}
	for _, tc := range cases {
		srv := New(Config{MaxRows: tc.cfg})
		got, err := srv.effectiveMaxRows(&Request{MaxRows: tc.req})
		if tc.wantErr {
			if err == nil {
				t.Errorf("cfg %d req %d: want error, got %d", tc.cfg, tc.req, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("cfg %d req %d: %v", tc.cfg, tc.req, err)
			continue
		}
		if got != tc.want {
			t.Errorf("cfg %d req %d: effective %d, want %d", tc.cfg, tc.req, got, tc.want)
		}
	}

	// End to end: an invalid max_rows fails without executing the
	// statement (the session is never created), and a configured cap
	// survives a client's -1.
	srv := New(Config{MaxRows: 2})
	resp := srv.Handle(context.Background(), &Request{Session: "m", Query: "create table T (A)", MaxRows: -2})
	if resp.OK || resp.Error == "" {
		t.Fatalf("invalid max_rows accepted: %+v", resp)
	}
	if srv.reg.lookup("m") != nil {
		t.Fatal("invalid request still created the session")
	}
	for _, q := range []string{
		"create table T (A)",
		"insert into T values (1), (2), (3), (4)",
	} {
		if resp := srv.Handle(context.Background(), &Request{Session: "m", Query: q}); !resp.OK {
			t.Fatalf("%q: %s", q, resp.Error)
		}
	}
	resp = decoded(t, srv.Handle(context.Background(), &Request{Session: "m", Query: "select certain A from T", MaxRows: -1}))
	if !resp.OK {
		t.Fatal(resp.Error)
	}
	if n := len(resp.Groups[0].Rows.Rows); n != 2 || !resp.Truncated {
		t.Fatalf("client -1 lifted a configured cap: %d rows, truncated=%v", n, resp.Truncated)
	}
	resp = decoded(t, srv.Handle(context.Background(), &Request{Session: "m", Query: "select certain A from T", MaxRows: 1}))
	if n := len(resp.Groups[0].Rows.Rows); n != 1 {
		t.Fatalf("client could not lower the cap: %d rows", n)
	}
}

// TestCreateFailureUnpublishes: a failed construction surfaces its error
// to every waiter and unpublishes the placeholder so the next request
// retries construction.
func TestCreateFailureUnpublishes(t *testing.T) {
	reg := newRegistry(0)
	ctx := context.Background()
	boom := errors.New("construction failed")
	if _, err := reg.acquireOwned(ctx, "x", func() (core.Engine, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if reg.lookup("x") != nil {
		t.Fatal("failed construction left a session registered")
	}
	s, err := reg.acquireOwned(ctx, "x", instantCreate)
	if err != nil {
		t.Fatal(err)
	}
	s.release()
}

// TestAcquireEvictRaceRegression: a waiter that resolved a session and is
// about to take its lock races an idle-eviction sweep that deletes the
// session — winning the lock afterwards would execute the statement
// against an orphaned backend whose effects silently vanish while a
// concurrent request recreates the name with a fresh backend. The test
// hook injects the eviction deterministically into the exact window (after
// resolution, before acquisition), with a fake clock driving idleness;
// acquireOwned must notice the orphan and retry onto the freshly
// registered session. 1000 iterations; run with -race in CI.
func TestAcquireEvictRaceRegression(t *testing.T) {
	const timeout = time.Minute
	clock := &fakeClock{now: time.Unix(0, 0)}
	reg := newRegistry(0)
	reg.now = clock.Now
	ctx := context.Background()

	reg.testHookAfterResolve = func(attempt int) {
		if attempt == 0 {
			// The session just resolved is idle past the timeout; the sweep
			// deletes it before the waiter reaches the lock.
			clock.Advance(timeout + time.Second)
			reg.evictIdle(timeout)
		}
	}
	for i := 0; i < 1000; i++ {
		got, err := reg.acquireOwned(ctx, "x", instantCreate)
		if err != nil {
			t.Fatal(err)
		}
		// While the lock is held the session cannot be evicted, so the
		// winner must be exactly the registered one.
		if reg.lookup("x") != got {
			t.Fatalf("iteration %d: acquired an orphaned session", i)
		}
		got.release()
	}

	// Stress variant: the same race with real concurrency instead of the
	// injected interleaving.
	reg.testHookAfterResolve = nil
	for i := 0; i < 1000; i++ {
		s, err := reg.acquireOwned(ctx, "x", instantCreate)
		if err != nil {
			t.Fatal(err)
		}
		s.release()
		clock.Advance(timeout + time.Second)
		var wg sync.WaitGroup
		wg.Add(2)
		var got *session
		go func() {
			defer wg.Done()
			reg.evictIdle(timeout)
		}()
		go func() {
			defer wg.Done()
			var err error
			got, err = reg.acquireOwned(ctx, "x", instantCreate)
			if err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got == nil {
			t.Fatal("acquire failed")
		}
		if reg.lookup("x") != got {
			t.Fatalf("stress iteration %d: acquired an orphaned session", i)
		}
		got.release()
	}
}

// TestCloseAcquireRace: same contract against explicit close — the waiter
// resolves the session, close() unregisters it (and a concurrent request
// recreates the name), and only then does the waiter reach the lock. It
// must land on the freshly registered session, not the orphan.
func TestCloseAcquireRace(t *testing.T) {
	reg := newRegistry(0)
	ctx := context.Background()
	var successor *session
	reg.testHookAfterResolve = func(attempt int) {
		if attempt == 0 {
			reg.close("x")
			// A concurrent request recreates the name with a fresh backend
			// — the orphan's effects would silently vanish.
			s, err := reg.get("x", instantCreate)
			if err != nil {
				t.Fatal(err)
			}
			successor = s
		}
	}
	for i := 0; i < 200; i++ {
		got, err := reg.acquireOwned(ctx, "x", instantCreate)
		if err != nil {
			t.Fatal(err)
		}
		if got != successor {
			t.Fatalf("iteration %d: acquired the orphaned session, not its successor", i)
		}
		if reg.lookup("x") != got {
			t.Fatalf("iteration %d: acquired an unregistered session", i)
		}
		got.release()
		reg.close("x")
	}
}
