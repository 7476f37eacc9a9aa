package dom_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/transform"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// benchPage is the benchmark's catalogue page — 60 sections of 40 rows,
// one of them on SALE, 12 122 nodes and about 180 KB — whose rows in
// the sections changed carry version stamp v.
func benchPage(v int, changed ...int) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for s := 0; s < 60; s++ {
		stamp := 0
		if slices.Contains(changed, s) {
			stamp = v
		}
		b.WriteString(`<div class="section"><table>`)
		for r := 0; r < 40; r++ {
			b.WriteString(`<tr><td class="name">`)
			if r == s%40 {
				b.WriteString("SALE ")
			}
			fmt.Fprintf(&b, `item %d.%d @%d</td><td class="price">$ %d.%02d</td></tr>`, s, r, stamp, 10+(s*7+r)%90, (s+r*3)%100)
		}
		b.WriteString(`</table></div>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// rotating is version v of benchPage with three consecutive sections
// rewritten, the window rotating across the page like the benchmark
// upstream's.
func rotating(v int) string {
	s := v * 3 % 60
	return benchPage(v, s, (s+1)%60, (s+2)%60)
}

// diffCold compares got with src's tree built without the pool's help —
// a Clone copies the nodes into arrays of its own and makes its index
// and hashes fresh — on Equal, every node's pre/post number, subtree
// size and subtree hash, the Fingerprint and the ContentKey, and
// describes the first difference ("" for none).
func diffCold(got *dom.Tree, src string) string {
	want := htmlparse.Parse(src).Clone()
	want.Warm()
	if !dom.Equal(got, want) {
		return "trees differ"
	}
	for i := 0; i < want.Size(); i++ {
		n := dom.NodeID(i)
		if got.Pre(n) != want.Pre(n) || got.Post(n) != want.Post(n) || got.SubtreeSize(n) != want.SubtreeSize(n) ||
			got.SubtreeHash(n) != want.SubtreeHash(n) {
			return fmt.Sprintf("node %d: pre %d/%d, post %d/%d, size %d/%d, hash %#x/%#x", i, got.Pre(n), want.Pre(n),
				got.Post(n), want.Post(n), got.SubtreeSize(n), want.SubtreeSize(n), got.SubtreeHash(n), want.SubtreeHash(n))
		}
	}
	if got.Fingerprint() != want.Fingerprint() || !got.DocOrdered() {
		return fmt.Sprintf("fingerprint %#x, want %#x; doc-ordered %v", got.Fingerprint(), want.Fingerprint(), got.DocOrdered())
	}
	if got.ContentKey() != htmlparse.Parse(src).ContentKey() {
		return "content key differs"
	}
	return ""
}

// TestPoisonedPoolBuilds fills the pool with column sets whose every
// byte is 0xFF before each build: full and grafted builds that draw
// them must still be the tree a cold build gives, so no build may rely
// on an allocation's zeros.
func TestPoisonedPoolBuilds(t *testing.T) {
	page := benchPage(0)
	nodes, attrs := htmlparse.Parse(page).Size(), strings.Count(page, "=")
	prev := htmlparse.Parse(page)
	prev.Warm()
	draws := dom.PoolDraws()
	for v := 1; v <= 6; v++ {
		src := rotating(v)
		dom.PoisonPool(nodes, attrs, 2)
		full := htmlparse.Parse(src)
		full.Warm()
		if d := diffCold(full, src); d != "" {
			t.Fatalf("version %d, full build from a poisoned pool: %s", v, d)
		}
		dom.PoisonPool(nodes, attrs, 2)
		grafted := htmlparse.Parse(src)
		grafted.WarmFrom(prev)
		if d := diffCold(grafted, src); d != "" {
			t.Fatalf("version %d, grafted build from a poisoned pool: %s", v, d)
		}
		prev = grafted
	}
	if dom.PoolDraws() == draws {
		t.Fatal("no build drew a column set from the pool")
	}
}

// TestRecycleAfterReaders runs three chains of owned trees at once, each
// over versions of its own: every version is adopted and built from the
// one before while two goroutines read that one, and must be its cold
// build; once its readers are done, the one before is recycled, so the
// next builds of all three chains draw its arrays. The readers see
// their tree unchanged to the end, and a recycled tree reads as empty.
// Run under -race.
func TestRecycleAfterReaders(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e := recycleChain(c); e != "" {
				errs <- fmt.Sprintf("chain %d: %s", c, e)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// recycleChain is one chain of TestRecycleAfterReaders; it describes
// the first failure ("" for none).
func recycleChain(c int) string {
	prev := dom.Adopt(htmlparse.Parse(rotating(c)))
	prev.Warm()
	for v := 1; v <= 6; v++ {
		src := rotating(c + 7*v)
		key, fp, size := prev.ContentKey(), prev.Fingerprint(), prev.Size()
		stop := make(chan struct{})
		changed := make(chan struct{}, 2)
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := r; ; i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					n := dom.NodeID(i % size)
					_ = prev.Pre(n) + prev.Post(n) + prev.SubtreeSize(n)
					_ = prev.ElementText(n)
					if prev.SubtreeHash(0) == 0 || prev.ContentKey() != key || prev.Fingerprint() != fp || prev.Size() != size {
						changed <- struct{}{}
						return
					}
				}
			}()
		}
		next := dom.Adopt(htmlparse.Parse(src))
		next.WarmFrom(prev)
		close(stop)
		readers.Wait()
		if len(changed) > 0 {
			return fmt.Sprintf("version %d: the previous tree changed under its readers", v)
		}
		if d := diffCold(next, src); d != "" {
			return fmt.Sprintf("version %d: %s", v, d)
		}
		prev.Recycle()
		prev.Recycle() // a second call does nothing
		if prev.Size() != 0 {
			return fmt.Sprintf("version %d: a recycled tree still has %d nodes", v, prev.Size())
		}
		prev = next
	}
	return ""
}

// catalogueProgram is the benchmark's catalogue wrapper.
const catalogueProgram = `page(S, X)    <- document("bench.example.com/catalogue", S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

// TestExtractRecyclesSupersededTrees polls a wrapper source 20 times
// over a page with three of its sections rewritten each time, the
// churn5 workload's tick: from the second changed poll on, the page is
// built into the arrays of the page two polls back, which the poll
// before superseded, so at least 18 of the 20 builds come from the
// pool, and every document is a fresh wrapper's. A build drawn from the
// pool allocates only what the recycled arrays do not cover (the
// builder's stack, the resume points, the label table and the bitsets
// LabelBits hands out): under 64 KB.
func TestExtractRecyclesSupersededTrees(t *testing.T) {
	opts := []lixto.Option{lixto.WithRoot("catalogue"), lixto.WithAuxiliary("page", "section")}
	var page string
	site := elog.FetcherFunc(func(string) (*dom.Tree, error) { return htmlparse.Parse(page), nil })
	src := &transform.WrapperSource{CompName: "catalogue", Fetcher: site, NoSourceAttr: true,
		Wrapper: lixto.MustCompile(catalogueProgram, opts...)}
	// What a fresh wrapper extracts from each version, taken before the
	// polls so that its builds do not count.
	want := make([]string, 21)
	for v := range want {
		res, err := lixto.MustCompile(catalogueProgram, opts...).Extract(context.Background(), lixto.HTML(rotating(v)))
		if err != nil {
			t.Fatal(err)
		}
		want[v] = xmlenc.MarshalIndent(res.XML())
	}
	poll := func(v int) {
		t.Helper()
		page = rotating(v)
		docs, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if got := xmlenc.MarshalIndent(docs[0]); got != want[v] {
			t.Fatalf("poll %d:\n%s\nwant (fresh wrapper):\n%s", v, got, want[v])
		}
	}
	runtime.GC() // twice: the pool's victim cache goes with the second
	runtime.GC()
	poll(0)
	draws := dom.PoolDraws()
	for v := 1; v <= 20; v++ {
		poll(v)
	}
	n := dom.PoolDraws() - draws
	t.Logf("20 changed polls: %d builds drew their arrays from the pool", n)
	if n < 18 && !raceBuild {
		t.Errorf("%d of 20 builds drew their arrays from the pool, want at least 18", n)
	}

	prev := dom.Adopt(htmlparse.Parse(rotating(0)))
	prev.Warm()
	var before, after runtime.MemStats
	most := uint64(0)
	for v := 1; v <= 10; v++ {
		next := dom.Adopt(htmlparse.Parse(rotating(v)))
		d := dom.PoolDraws()
		runtime.ReadMemStats(&before)
		next.WarmFrom(prev)
		runtime.ReadMemStats(&after)
		drew, bytes := dom.PoolDraws() > d, after.TotalAlloc-before.TotalAlloc
		prev.Recycle()
		prev = next
		if v > 1 {
			most = max(most, bytes)
		}
		if v > 1 && !raceBuild && (!drew || bytes >= 64<<10) {
			t.Errorf("version %d built from version %d: drew from the pool %v, allocated %d bytes; want a draw and under %d",
				v, v-1, drew, bytes, 64<<10)
		}
	}
	t.Logf("a build drawn from the pool allocated at most %d bytes", most)
	if d := diffCold(prev, rotating(10)); d != "" {
		t.Fatalf("the last recycled build: %s", d)
	}
}
