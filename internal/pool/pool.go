// Package pool holds storage that one version of a polled structure
// gives back for the next version of a similar size: a page tree's
// node columns (internal/dom), an instance base's slabs and tables and
// an output cache's generations (internal/pib). Storage is kept by
// size class, in sync.Pools, so the collector empties the pools as it
// would have collected the storage, and nothing is retained beside
// what is live.
package pool

import (
	"math/bits"
	"sync"
)

// SizeClass returns the size of the class that holds n items — the
// smallest m·2^s at least n, with 8 <= m <= 16, so a class wastes at
// most an eighth of its size — and the class's index. Sizes grow with
// the index; n below 8 is counted as 8.
func SizeClass(n int) (size, class int) {
	n = max(n, 8)
	s := max(bits.Len(uint(n-1))-4, 0)
	m := (n-1)>>s + 1
	return m << s, 8*s + m - 8
}

// Floor returns the largest class whose size is at most n (n >= 8):
// the class that storage with room for n items goes back to.
func Floor(n int) (size, class int) {
	size, class = SizeClass(n)
	if size > n {
		class--
		size = ClassSize(class)
	}
	return size, class
}

// ClassSize returns the size of a class.
func ClassSize(class int) int { return (8 + class%8) << (class / 8) }

// Classes is one sync.Pool of *T per size class. The zero value is
// ready to use; a Classes must not be copied.
type Classes[T any] struct {
	pools [8 * 32]sync.Pool
	// held is a placeholder. A sync.Pool keeps the first value a P puts
	// into it in a slot that only a Get on the same P looks at, and the
	// next version of a structure is often built on another P. Put
	// therefore puts held first: when the slot is free, held takes it
	// and the released value goes to the P's shared queue, which a Get
	// on any P searches. Get skips held.
	held T
}

// Put releases v into the pool of class.
func (c *Classes[T]) Put(class int, v *T) {
	c.pools[class].Put(&c.held)
	c.pools[class].Put(v)
}

// Near returns a value released for about n items: one from the pool
// of n's class, else one from the class below, which may hold up to an
// eighth fewer than n; or nil. Storage made to measure and put back by
// Floor is found by the next request for as many items.
func (c *Classes[T]) Near(n int) *T {
	size, class := SizeClass(n)
	if v := c.Get(class); v != nil || size == n || class == 0 {
		return v
	}
	return c.Get(class - 1)
}

// Largest returns a value released for at most about n items and at
// least half as many: one from the pool of n's class, else from the
// largest class below it down to that of n/2 that has one; or nil.
// Storage that may continue in more storage (a slab of chunks) takes
// what is there before it makes any.
func (c *Classes[T]) Largest(n int) *T {
	_, class := SizeClass(n)
	_, least := SizeClass(n / 2)
	for ; class >= least; class-- {
		if v := c.Get(class); v != nil {
			return v
		}
	}
	return nil
}

// Get returns a value released into the pool of class, or nil.
func (c *Classes[T]) Get(class int) *T {
	for {
		if v, _ := c.pools[class].Get().(*T); v != &c.held {
			return v
		}
	}
}
