package fetchcache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// countingFetcher parses a fixed page per URL, counting upstream
// fetches and optionally sleeping to widen singleflight windows.
type countingFetcher struct {
	mu    sync.Mutex
	pages map[string]string
	calls map[string]int
	delay time.Duration
}

func newCounting() *countingFetcher {
	return &countingFetcher{pages: map[string]string{}, calls: map[string]int{}}
}

func (f *countingFetcher) set(url, html string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pages[url] = html
}

func (f *countingFetcher) count(url string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[url]
}

func (f *countingFetcher) Fetch(url string) (*dom.Tree, error) {
	f.mu.Lock()
	html, ok := f.pages[url]
	f.calls[url]++
	delay := f.delay
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if !ok {
		return nil, fmt.Errorf("404 %s", url)
	}
	return htmlparse.Parse(html), nil
}

func TestHitMissAndSharing(t *testing.T) {
	inner := newCounting()
	inner.set("a", "<p>a</p>")
	c := New(16, 0)
	f := c.Wrap(inner)

	t1, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("second fetch did not reuse the cached tree")
	}
	if got := inner.count("a"); got != 1 {
		t.Errorf("upstream fetched %d times, want 1", got)
	}
	// A second wrapped fetcher of the same cache shares the entries.
	other := c.Wrap(newCounting())
	t3, err := other.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	if t3 != t1 {
		t.Error("second fetcher did not share the cache entry")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

func TestSingleflightDedup(t *testing.T) {
	inner := newCounting()
	inner.set("a", "<p>a</p>")
	inner.delay = 20 * time.Millisecond
	c := New(16, 0)
	f := c.Wrap(inner)

	const n = 16
	trees := make([]*dom.Tree, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t_, err := f.Fetch("a")
			if err != nil {
				t.Error(err)
				return
			}
			trees[i] = t_
		}(i)
	}
	wg.Wait()
	if got := inner.count("a"); got != 1 {
		t.Fatalf("upstream fetched %d times under %d concurrent callers, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if trees[i] != trees[0] {
			t.Fatal("concurrent callers got different trees")
		}
	}
	if st := c.Stats(); st.Shared != n-1 {
		t.Errorf("shared = %d, want %d", st.Shared, n-1)
	}
}

func TestLRUEviction(t *testing.T) {
	inner := newCounting()
	for _, u := range []string{"a", "b", "c"} {
		inner.set(u, "<p>"+u+"</p>")
	}
	c := New(2, 0)
	f := c.Wrap(inner)
	for _, u := range []string{"a", "b"} {
		if _, err := f.Fetch(u); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so that b is the LRU victim.
	if _, err := f.Fetch("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch("c"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after eviction = %+v, want 2 entries / 1 eviction", st)
	}
	// b was evicted, a survived.
	if _, err := f.Fetch("a"); err != nil {
		t.Fatal(err)
	}
	if got := inner.count("a"); got != 1 {
		t.Errorf("a refetched (%d upstream calls) despite surviving eviction", got)
	}
	if _, err := f.Fetch("b"); err != nil {
		t.Fatal(err)
	}
	if got := inner.count("b"); got != 2 {
		t.Errorf("b upstream calls = %d, want 2 (evicted then refetched)", got)
	}
}

func TestFreshnessWindowAndFingerprintStability(t *testing.T) {
	inner := newCounting()
	inner.set("a", "<p>a</p>")
	c := New(16, time.Second)
	clock := time.Now()
	c.now = func() time.Time { return clock }
	f := c.Wrap(inner)

	t1, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	// Within the window: served from cache.
	clock = clock.Add(500 * time.Millisecond)
	if _, err := f.Fetch("a"); err != nil {
		t.Fatal(err)
	}
	if got := inner.count("a"); got != 1 {
		t.Fatalf("fresh entry refetched (%d upstream calls)", got)
	}
	// Past the window with unchanged content: revalidated upstream, but
	// the original tree object keeps being served so downstream
	// fingerprint caches stay hot.
	clock = clock.Add(time.Second)
	t2, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.count("a"); got != 2 {
		t.Fatalf("stale entry not revalidated (%d upstream calls)", got)
	}
	if t2 != t1 {
		t.Error("unchanged content served a new tree object after revalidation")
	}
	// Changed content yields the new tree.
	inner.set("a", "<p>changed</p>")
	clock = clock.Add(2 * time.Second)
	t3, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("changed content still served the old tree")
	}
	if st := c.Stats(); st.Expired != 2 {
		t.Errorf("expired = %d, want 2", st.Expired)
	}
}

func TestErrorsNotCached(t *testing.T) {
	inner := newCounting()
	c := New(16, 0)
	f := c.Wrap(inner)
	if _, err := f.Fetch("missing"); err == nil {
		t.Fatal("expected error")
	}
	inner.set("missing", "<p>found</p>")
	if _, err := f.Fetch("missing"); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestWrapIdempotent: re-wrapping a wrapped fetcher must not stack the
// cache onto itself (a stacked miss would deadlock on its own entry).
func TestWrapIdempotent(t *testing.T) {
	a := newCounting()
	a.set("u", "<p>a</p>")
	c := New(16, 0)
	w := c.Wrap(a)
	if c.Wrap(w) != w {
		t.Error("double Wrap stacked the cache")
	}
	if _, err := c.Wrap(w).Fetch("u"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || a.count("u") != 1 {
		t.Errorf("entries = %d, upstream fetches = %d, want 1 and 1", c.Len(), a.count("u"))
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	inner := newCounting()
	inner.set("a", "<p>a</p>")
	inner.set("b", "<p>b</p>")
	c := New(16, 0)
	f := c.Wrap(inner)
	for _, u := range []string{"a", "b"} {
		if _, err := f.Fetch(u); err != nil {
			t.Fatal(err)
		}
	}
	c.Invalidate("a")
	if _, err := f.Fetch("a"); err != nil {
		t.Fatal(err)
	}
	if got := inner.count("a"); got != 2 {
		t.Errorf("a upstream calls after Invalidate = %d, want 2", got)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("entries after Flush = %d, want 0", c.Len())
	}
}

// TestConcurrentChurn hammers one cache from many goroutines across
// overlapping URLs with a small capacity, checking internal
// consistency under -race.
func TestConcurrentChurn(t *testing.T) {
	inner := newCounting()
	for i := 0; i < 20; i++ {
		inner.set(fmt.Sprintf("u%d", i), fmt.Sprintf("<p>%d</p>", i))
	}
	c := New(8, 0)
	f := c.Wrap(inner)
	var errs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := f.Fetch(fmt.Sprintf("u%d", (g*7+i)%20)); err != nil {
					errs.Add(1)
				}
				if i%50 == 0 {
					c.Invalidate(fmt.Sprintf("u%d", i%20))
				}
			}
		}(g)
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d fetch errors", errs.Load())
	}
	if n := c.Len(); n > 8 {
		t.Errorf("cache grew past its bound: %d entries", n)
	}
}

// sectionPage is a page of 20 sections of about 1.5 KB, the shape whose
// refresh is re-parsed incrementally; stamp marks the version of
// section changed.
func sectionPage(changed, stamp int) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for s := 0; s < 20; s++ {
		v := 0
		if s == changed {
			v = stamp
		}
		fmt.Fprintf(&b, `<div class="section"><table>`)
		for r := 0; r < 20; r++ {
			fmt.Fprintf(&b, `<tr><td class="name">item %d.%d @%d</td><td>$ %d</td></tr>`, s, r, v, s*r)
		}
		b.WriteString("</table></div>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// TestRefreshGraftsChangedPage: a refresh whose content changed in one
// section builds the new tree from the one it replaces, and serves the
// tree a fresh parse gives, with its content key and subtree hashes.
func TestRefreshGraftsChangedPage(t *testing.T) {
	inner := newCounting()
	inner.set("a", sectionPage(-1, 0))
	c := New(16, time.Second)
	clock := time.Now()
	c.now = func() time.Time { return clock }
	f := c.Wrap(inner)
	old, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	next := sectionPage(7, 3)
	inner.set("a", next)
	clock = clock.Add(2 * time.Second)
	got, err := f.Fetch("a")
	if err != nil {
		t.Fatal(err)
	}
	if got == old {
		t.Fatal("changed content served the old tree")
	}
	want := htmlparse.Parse(next)
	want.Warm()
	if !dom.Equal(got, want) || got.ContentKey() != want.ContentKey() || got.Fingerprint() != want.Fingerprint() {
		t.Fatal("refreshed tree differs from a fresh parse of the new content")
	}
	for i := 0; i < want.Size(); i++ {
		if n := dom.NodeID(i); got.SubtreeHash(n) != want.SubtreeHash(n) {
			t.Fatalf("node %d: subtree hash %#x, a fresh parse has %#x", i, got.SubtreeHash(n), want.SubtreeHash(n))
		}
	}
}
