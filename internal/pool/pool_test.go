package pool

import "testing"

// TestClasses: a class holds what it is asked for with at most an
// eighth to spare, Floor gives back to a class no larger than the
// storage, and sizes grow with the index.
func TestClasses(t *testing.T) {
	last := 0
	for n := 8; n <= 1<<16; n++ {
		size, class := SizeClass(n)
		if size < n || 8*(size-n) > size {
			t.Fatalf("SizeClass(%d) = %d: not within an eighth above", n, size)
		}
		if ClassSize(class) != size {
			t.Fatalf("ClassSize(%d) = %d, want %d", class, ClassSize(class), size)
		}
		if class < last || class > last+1 {
			t.Fatalf("SizeClass(%d) is class %d after class %d", n, class, last)
		}
		last = class
		if fs, fc := Floor(n); fs > n || (fs < n && fc != class-1) || (fs == n && fc != class) {
			t.Fatalf("Floor(%d) = %d, class %d; SizeClass gives %d, class %d", n, fs, fc, size, class)
		}
	}
}

// TestNear: storage made to measure for n and given back by Floor is
// found by the next request for n, and not by one for twice as many.
func TestNear(t *testing.T) {
	var c Classes[[]int]
	for _, n := range []int{8, 100, 2420, 4096, 12122} {
		v := make([]int, n)
		_, class := Floor(cap(v))
		found := false
		for range 32 { // a race build's sync.Pool drops a quarter of puts
			c.Put(class, &v)
			if got := c.Near(n); got != nil {
				if got != &v {
					t.Fatalf("Near(%d) found storage it was not given", n)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Near(%d) did not find the storage made for it", n)
		}
		c.Put(class, &v)
		if got := c.Near(2 * n); got != nil {
			t.Fatalf("Near(%d) found storage for %d", 2*n, n)
		}
		c.Get(class)
	}
}

// TestLargest: Largest takes the largest storage of at most about n
// items and at least half as many, and none smaller.
func TestLargest(t *testing.T) {
	var c Classes[[]int]
	put := func(n int) *[]int {
		v := make([]int, n)
		_, class := Floor(n)
		c.Put(class, &v)
		return &v
	}
	found := false
	for range 32 { // a race build's sync.Pool drops a quarter of puts
		small, big := put(1024), put(2048)
		if got := c.Largest(4200); got != nil {
			t.Fatalf("Largest(4200) took storage for %d items", len(*got))
		}
		got := c.Largest(2420)
		if got == small {
			t.Fatal("Largest(2420) took the 1024 before the 2048")
		}
		c.Largest(1100)
		if got == big {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("Largest(2420) did not find the 2048")
	}
}
