package elog

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/internal/pib"
)

// churnVersions returns nVersions snapshots of the fixture's documents:
// version 0 is the fixture as parsed, and each later version is an
// independent clone of the originals with its own deterministic
// mutation burst. Consecutive versions therefore share most subtrees
// while differing in a few dirty regions — the shape the incremental
// layer is built for.
func churnVersions(fetch MapFetcher, nVersions int) []MapFetcher {
	versions := make([]MapFetcher, nVersions)
	versions[0] = fetch
	for v := 1; v < nVersions; v++ {
		m := MapFetcher{}
		for url, tr := range fetch {
			c := tr.Clone()
			dom.Mutate(c, rand.New(rand.NewSource(int64(v)*1000003+int64(len(url)))), 4)
			m[url] = c
		}
		versions[v] = m
	}
	return versions
}

// TestIncrementalMatchesCold pins the tentpole differential guarantee:
// over a randomized mutation sequence, an evaluator reusing subtree
// match results across document versions produces a bit-identical
// instance base to a cold evaluation of each version, at every
// concurrency level. Run with -race this also stresses concurrent
// access to the subtree caches from parallel waves.
func TestIncrementalMatchesCold(t *testing.T) {
	concs := []int{1, runtime.GOMAXPROCS(0)}
	for name, fx := range parallelFixtures() {
		prog := MustParse(fx.src)
		versions := churnVersions(fx.fetch, 6)

		// Cold baseline: a fresh compiled program per version, no
		// sharing of any kind between versions.
		want := make([]string, len(versions))
		for v, fetch := range versions {
			ev := NewEvaluator(fetch)
			base, err := ev.RunCompiled(MustCompile(prog))
			if err != nil {
				t.Fatalf("%s cold v%d: %v", name, v, err)
			}
			want[v] = base.Dump()
		}

		for _, conc := range concs {
			cp := MustCompile(prog)
			shared := NewMatchCache()
			for v, fetch := range versions {
				ev := NewEvaluator(fetch)
				ev.MaxConcurrency = conc
				ev.Incremental = true
				ev.Shared = shared
				base, err := ev.RunCompiled(cp)
				if err != nil {
					t.Fatalf("%s conc=%d v%d: %v", name, conc, v, err)
				}
				if got := base.Dump(); got != want[v] {
					t.Errorf("%s conc=%d v%d: incremental base diverges from cold evaluation:\n--- cold ---\n%s--- incremental ---\n%s",
						name, conc, v, want[v], got)
				}
			}
			// Fine-grained contexts (rows, cells) must see reuse across
			// versions. The crawl fixture's contexts are whole tiny
			// documents, so any mutation dirties them — zero hits is the
			// correct outcome there, not a failure.
			if inc := cp.Incremental(); inc.SubtreeHits == 0 && name != "crawl" {
				t.Errorf("%s conc=%d: no subtree hits across %d versions — incremental path never engaged", name, conc, len(versions))
			}
		}
	}
}

// TestIncrementalCumulativeDrift runs the same differential over a
// cumulative content-mutation chain (each version mutates the previous
// one, not the original), the pattern a long-lived wrapper sees from a
// slowly drifting live page. Content-only churn preserves document
// order, so the incremental path must stay engaged the whole chain.
func TestIncrementalCumulativeDrift(t *testing.T) {
	fx := parallelFixtures()["ebay"]
	prog := MustParse(fx.src)
	rng := rand.New(rand.NewSource(42))
	cur := fx.fetch["www.ebay.com/"]
	cp := MustCompile(prog)
	shared := NewMatchCache()
	for v := 0; v < 8; v++ {
		fetch := MapFetcher{"www.ebay.com/": cur}
		cold := NewEvaluator(fetch)
		wantBase, err := cold.RunCompiled(MustCompile(prog))
		if err != nil {
			t.Fatalf("cold v%d: %v", v, err)
		}
		inc := NewEvaluator(fetch)
		inc.Incremental = true
		inc.Shared = shared
		gotBase, err := inc.RunCompiled(cp)
		if err != nil {
			t.Fatalf("incremental v%d: %v", v, err)
		}
		if want, got := wantBase.Dump(), gotBase.Dump(); got != want {
			t.Errorf("v%d: incremental base diverges from cold evaluation:\n--- cold ---\n%s--- incremental ---\n%s", v, want, got)
		}
		next := cur.Clone()
		dom.MutateContent(next, rng, 5)
		cur = next
	}
	if st := cp.Incremental(); st.SubtreeHits == 0 {
		t.Error("no subtree hits over the drift chain")
	}
}

// TestMatchCacheLRUBound pins the memo's memory guarantee: under
// sustained churn neither a shared cache nor a program's own memo
// exceeds its entry cap, and both keep serving by evicting least
// recently used entries.
func TestMatchCacheLRUBound(t *testing.T) {
	const cap = 32
	shared := NewMatchCacheSize(cap)
	prog := MustParse(`item(S, X) <- document("d", S), subelem(S, ?.td, X)`)
	cp := MustCompile(prog)
	rng := rand.New(rand.NewSource(9))
	cur := htmlparse.Parse(`<table><tr><td>a</td><td>b</td><td>c</td><td>d</td></tr></table>`)
	for i := 0; i < 150; i++ {
		ev := NewEvaluator(MapFetcher{"d": cur})
		ev.Incremental = true
		ev.Shared = shared
		if _, err := ev.RunCompiled(cp); err != nil {
			t.Fatal(err)
		}
		st := shared.Report()
		if st.Entries > cap {
			t.Fatalf("round %d: %d entries exceeds cap %d", i, st.Entries, cap)
		}
		// bytes is kept on put and evict: it must equal a recount of the
		// live entries, each under the key its entry remembers.
		held := 0
		for k, e := range shared.entries {
			if e.key != k {
				t.Fatalf("round %d: entry under %+v remembers %+v", i, k, e.key)
			}
			held += e.size()
		}
		if st.Bytes != held || held < 64*st.Entries {
			t.Fatalf("round %d: bytes = %d, live entries hold %d (%d entries)", i, st.Bytes, held, st.Entries)
		}
		next := cur.Clone()
		dom.Mutate(next, rng, 2)
		cur = next
	}
	if st := shared.Report(); st.Evictions == 0 {
		t.Error("no evictions after 150 distinct document versions against a 32-entry cap")
	}

	// Unattached, a program memoizes in its own cache, bounded the same
	// way at DefaultMatchCacheEntries: every version rewrites every row,
	// so each adds a subtree entry per row.
	unattached := MustCompile(MustParse(`row(S, X) <- document("d", S), subelem(S, ?.tr, X)
cell(S, X) <- row(_, S), subelem(S, ?.td, X)`))
	const rows = 200
	for v := 0; v < 100; v++ {
		var sb strings.Builder
		sb.WriteString("<table>")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, "<tr><td>%d.%d</td></tr>", v, r)
		}
		sb.WriteString("</table>")
		ev := NewEvaluator(MapFetcher{"d": htmlparse.Parse(sb.String())})
		ev.Incremental = true
		if _, err := ev.RunCompiled(unattached); err != nil {
			t.Fatal(err)
		}
		if st := unattached.own.Load().Report(); st.Entries > DefaultMatchCacheEntries {
			t.Fatalf("version %d: own memo holds %d entries, cap %d", v, st.Entries, DefaultMatchCacheEntries)
		}
	}
	if st := unattached.own.Load().Report(); st.Evictions == 0 {
		t.Errorf("own memo: no evictions after %d distinct rows against a %d-entry cap", 100*rows, DefaultMatchCacheEntries)
	}
}

// fuzzIncrementalPrograms are the wrappers FuzzIncremental runs over
// every input: the first has one level of subelem under nested parents
// (every element is a cell), the second two levels under a repeated,
// mostly disjoint parent — the shape whose matches are computed for all
// parents at once and split back by id range.
var fuzzIncrementalPrograms = []string{`
cell(S, X) <- document("d", S), subelem(S, ?.*, X)
inner(S, X) <- cell(_, S), subelem(S, *, X)
texty(S, X) <- cell(S, X), contains(X, (?.*, [(elementtext, .+, regexp)]), _)
`, `
item(S, X) <- document("d", S), subelem(S, ?.li|tr|div, X)
part(S, X) <- item(_, S), subelem(S, *, X)
leaf(S, X) <- part(_, S), subelem(S, ?.*, X)
word(S, X) <- part(_, S), subelem(S, (?.*, [(elementtext, \var[Y].*, regvar)]), X)
`}

// instanceSet renders a base order-insensitively: one sorted line per
// instance naming its pattern, nodes, text and its parent's pattern and
// nodes. The interpreter discovers nested matches in a different order
// than the bitset matcher (see bitsetMatch), so ids differ, but which
// instance hangs under which parent must not.
func instanceSet(b *pib.Base) string {
	var lines []string
	for _, p := range b.Patterns() {
		for _, in := range b.Instances(p) {
			line := fmt.Sprintf("%s %v %q", in.Pattern, in.Nodes, in.Text)
			if in.Parent != nil {
				line += fmt.Sprintf(" <- %s %v", in.Parent.Pattern, in.Parent.Nodes)
			}
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// FuzzIncremental mutates a document between evaluations and checks
// that neither subtree-level reuse, nor set-at-a-time rule application,
// nor maintaining the base from the previous version's changes the
// instance base: for every (document, seed) and program the incremental
// evaluator's base and the one RunMaintained carries across the
// versions must be bit-identical to a cold evaluation of each version,
// and hold the interpreter's instances. Each mutated version is
// re-parsed, so its ids are in document order and grafting engages.
func FuzzIncremental(f *testing.F) {
	f.Add("<body><ul><li>alpha</li><li>beta</li></ul><p>tail</p></body>", int64(1))
	f.Add(`<table><tr><td><b class="cur">$</b> 5</td><td>x</td></tr></table>`, int64(7))
	f.Add(`<div a="1"><span>x</span><div><i>y</i></div></div>`, int64(3))
	f.Add(`<table><tr><td><b>1</b> a</td><td>2</td></tr><tr><td><i>3</i></td></tr><tr><td>4</td><td><u>5</u> b</td></tr></table>`, int64(11))
	f.Add(`<ul><li><b>x</b><ul><li><b>y</b></li><li>z</li></ul></li><li><div><i>w</i></div></li></ul><div><p>v</p></div>`, int64(5))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 4096 {
			return
		}
		for pi, progSrc := range fuzzIncrementalPrograms {
			prog := MustParse(progSrc)
			rng := rand.New(rand.NewSource(seed))
			cur := htmlparse.Parse(src)
			cp := MustCompile(prog)
			shared := NewMatchCache()
			mnt := NewEvaluator(nil) // one concept base: the bases share an origin
			var prev *pib.Base
			for v := 0; v < 3; v++ {
				fetch := MapFetcher{"d": cur}
				cold := NewEvaluator(fetch)
				wantBase, err := cold.RunCompiled(MustCompile(prog))
				if err != nil {
					t.Fatalf("program %d cold v%d: %v", pi, v, err)
				}
				inc := NewEvaluator(fetch)
				inc.Incremental = true
				inc.Shared = shared
				gotBase, err := inc.RunCompiled(cp)
				if err != nil {
					t.Fatalf("program %d incremental v%d: %v", pi, v, err)
				}
				if want, got := wantBase.Dump(), gotBase.Dump(); got != want {
					t.Fatalf("program %d v%d: incremental base diverges from cold evaluation:\n--- cold ---\n%s--- incremental ---\n%s", pi, v, want, got)
				}
				mnt.Fetcher = fetch
				if prev, err = mnt.RunMaintained(cp, prev); err != nil {
					t.Fatalf("program %d maintained v%d: %v", pi, v, err)
				}
				if want, got := wantBase.Dump(), prev.Dump(); got != want {
					t.Fatalf("program %d v%d: maintained base diverges from cold evaluation:\n--- cold ---\n%s--- maintained ---\n%s", pi, v, want, got)
				}
				refBase, err := NewEvaluator(fetch).Run(prog)
				if err != nil {
					t.Fatalf("program %d interpreted v%d: %v", pi, v, err)
				}
				if want, got := instanceSet(refBase), instanceSet(gotBase); got != want {
					t.Fatalf("program %d v%d: compiled instances differ from the interpreter's:\n--- interpreted ---\n%s\n--- compiled ---\n%s", pi, v, want, got)
				}
				next := cur.Clone()
				dom.Mutate(next, rng, 3)
				cur = htmlparse.Parse(htmlparse.Render(next))
			}
		}
	})
}
