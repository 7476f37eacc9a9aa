package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timed is one latency observation, stamped with the instant that
// assigns it to a slice of the measured window.
type timed struct {
	at  time.Time
	lat time.Duration
}

// window is the measured interval, cut into equal slices. CPU per tick
// is taken per slice and the median slice reported, so a burst on a
// shared box moves one slice, not the result. Latencies are plain
// medians over the window: a median already ignores a burst that
// touches less than half the samples.
type window struct {
	bounds []time.Time // len = slices+1
}

func newWindow(start time.Time, length time.Duration, slices int) window {
	b := make([]time.Time, slices+1)
	for i := range b {
		b[i] = start.Add(length * time.Duration(i) / time.Duration(slices))
	}
	return window{bounds: b}
}

func (w window) start() time.Time { return w.bounds[0] }
func (w window) end() time.Time   { return w.bounds[len(w.bounds)-1] }

// slice returns the index of the slice holding t, or -1 outside the
// window.
func (w window) slice(t time.Time) int {
	if t.Before(w.start()) || !t.Before(w.end()) {
		return -1
	}
	return sort.Search(len(w.bounds), func(i int) bool { return w.bounds[i].After(t) }) - 1
}

// inside returns the samples stamped inside the window, in unit (e.g.
// milliseconds).
func (w window) inside(samples []timed, unit time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if w.slice(s.at) >= 0 {
			out = append(out, float64(s.lat)/float64(unit))
		}
	}
	return out
}

// durationsIn converts plain durations to the reported unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
