package server

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when a test advances it. Timers
// fire in deadline order during Advance: a channel timer gets a
// non-blocking send, an AfterFunc callback runs on the advancing
// goroutine, so its effects are visible when Advance returns. A timer
// armed with a deadline that has already passed fires at once, as a
// real one does.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	pending map[*fakeTimer]struct{}
	changed chan struct{} // closed and replaced when pending changes
}

func newFakeClock() *fakeClock {
	return &fakeClock{
		now:     time.Date(2004, 6, 14, 9, 0, 0, 0, time.UTC),
		pending: map[*fakeTimer]struct{}{},
		changed: make(chan struct{}),
	}
}

type fakeTimer struct {
	c    *fakeClock
	when time.Time
	ch   chan time.Time // nil for an AfterFunc timer
	f    func()
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTimer(d time.Duration) timer {
	t := &fakeTimer{c: c, ch: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock forward by d and fires every timer due by
// then.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeTimer
	for t := range c.pending {
		if !t.when.After(c.now) {
			due = append(due, t)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].when.Before(due[j].when) })
	var funcs []func()
	for _, t := range due {
		if f := t.fireLocked(); f != nil {
			funcs = append(funcs, f)
		}
	}
	c.mu.Unlock()
	for _, f := range funcs {
		f()
	}
}

// waitTimers blocks until exactly n timers are pending.
func (c *fakeClock) waitTimers(t *testing.T, n int) {
	t.Helper()
	c.waitPending(t, func(pending map[*fakeTimer]struct{}, _ time.Time) bool { return len(pending) == n },
		"%d timers pending", n)
}

// waitDue blocks until some pending timer fires within d of now: the
// code under test has armed the deadline the next Advance(d) reaches.
func (c *fakeClock) waitDue(t *testing.T, d time.Duration) {
	t.Helper()
	c.waitPending(t, func(pending map[*fakeTimer]struct{}, now time.Time) bool {
		for tm := range pending {
			if !tm.when.After(now.Add(d)) {
				return true
			}
		}
		return false
	}, "a timer due within %v", d)
}

func (c *fakeClock) waitPending(t *testing.T, ok func(map[*fakeTimer]struct{}, time.Time) bool, what string, arg any) {
	t.Helper()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		done, changed, n := ok(c.pending, c.now), c.changed, len(c.pending)
		c.mu.Unlock()
		if done {
			return
		}
		select {
		case <-changed:
		case <-deadline.C:
			t.Fatalf("fake clock never had "+what+" (%d pending)", arg, n)
		}
	}
}

func (c *fakeClock) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// fireLocked removes a due timer and fires it: a channel timer now, an
// AfterFunc timer by the returned callback, run once c.mu is released.
func (t *fakeTimer) fireLocked() func() {
	delete(t.c.pending, t)
	t.c.signalLocked()
	if t.f != nil {
		return t.f
	}
	select {
	case t.ch <- t.c.now:
	default:
	}
	return nil
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

// Stop disarms the timer; as with a time.Timer, no stale tick is left
// in its channel.
func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.stopLocked()
}

func (t *fakeTimer) stopLocked() bool {
	_, armed := t.c.pending[t]
	if armed {
		delete(t.c.pending, t)
		t.c.signalLocked()
	}
	if t.ch != nil {
		select {
		case <-t.ch:
		default:
		}
	}
	return armed
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	armed := t.stopLocked()
	t.when = t.c.now.Add(d)
	t.c.pending[t] = struct{}{}
	t.c.signalLocked()
	var f func()
	if d <= 0 {
		f = t.fireLocked()
	}
	t.c.mu.Unlock()
	if f != nil {
		go f()
	}
	return armed
}

// waitTicks blocks until the scheduled pipeline name has completed n
// ticks (its synchronous registration tick included) and its entry is
// idle again, so the next deadline dispatches rather than counting a
// late tick. A worker broadcasts on the shard's cond each time one of
// its ticks finishes.
func waitTicks(t *testing.T, s *Server, name string, n uint64) {
	t.Helper()
	s.mu.Lock()
	ps := s.pipes[name]
	var e *schedEntry
	if ps != nil {
		e = ps.entry
	}
	s.mu.Unlock()
	if e == nil {
		t.Fatalf("pipeline %q is not scheduled", name)
	}
	ticks := func() uint64 {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.ticks
	}
	sh := e.sh
	timedOut := false
	giveUp := time.AfterFunc(10*time.Second, func() {
		sh.mu.Lock()
		timedOut = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	})
	defer giveUp.Stop()
	sh.mu.Lock()
	for (ticks() < n || e.state != entryIdle) && !timedOut {
		sh.cond.Wait()
	}
	sh.mu.Unlock()
	if timedOut {
		t.Fatalf("pipeline %q never reached %d ticks (has %d)", name, n, ticks())
	}
}

// TestFakeClock pins the fake's timer semantics the server relies on.
func TestFakeClock(t *testing.T) {
	c := newFakeClock()
	start := c.Now()
	tm := c.NewTimer(time.Second)
	fired := 0
	c.AfterFunc(2*time.Second, func() { fired++ })
	c.waitTimers(t, 2)
	c.Advance(999 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(time.Millisecond)
	if got := <-tm.C(); !got.Equal(start.Add(time.Second)) {
		t.Fatalf("timer fired at %v", got)
	}
	c.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("AfterFunc ran %d times by the end of Advance", fired)
	}
	c.waitTimers(t, 0)
	// Reset re-arms from now; Stop leaves no stale tick behind.
	tm.Reset(time.Second)
	c.waitDue(t, time.Second)
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop reported a fired timer as pending")
	}
	select {
	case <-tm.C():
		t.Fatal("stale tick after Stop")
	default:
	}
}
