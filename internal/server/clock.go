package server

import "time"

// clock is the server's one source of time. Every deadline, timer,
// backoff and status timestamp reads it: the scheduler's deadlines and
// shard timers, the compile rate limiter, the webhook backoff, breaker
// cooldown, cursor-save debounce and last-delivery stamp, the SSE
// heartbeat, and a pipeline's last-tick stamp. Durations that measure
// work, such as a tick's latency, stay on the time package.
//
// A server runs on realClock unless an in-package test sets
// Config.clock to a clock it advances by hand.
type clock interface {
	Now() time.Time
	NewTimer(d time.Duration) timer
	AfterFunc(d time.Duration, f func()) timer
}

// timer is the part of *time.Timer the server uses. C is nil for a
// timer made by AfterFunc.
type timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// realClock is the time package.
type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) timer { return realTimer{time.NewTimer(d)} }
func (realClock) AfterFunc(d time.Duration, f func()) timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.Timer.C }

// sleep waits d on clk, or until done closes; it reports whether the
// full wait elapsed.
func sleep(clk clock, d time.Duration, done <-chan struct{}) bool {
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-done:
		return false
	}
}
