package elog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/htmlparse"
)

// fleetProgram stamps the same wrapper template the way a monitoring
// fleet does: identical extraction paths, a per-wrapper document URL.
func fleetProgram(url string) *Program {
	return MustParse(fmt.Sprintf(`
page(S, X) <- document(%q, S), subelem(S, .body, X)
row(S, X) <- page(_, S), subelem(S, (?.tr, [(class, row, exact)]), X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, url))
}

func fleetPage(rows int) string {
	var b strings.Builder
	b.WriteString("<html><body><table>")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, `<tr class="row"><td class="name">item %d</td><td class="price">$ %d</td></tr>`, i, i*3)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

// TestBatchedMatchesUnbatched is the batching differential: a fleet of
// independently compiled wrappers over one shared page produces
// byte-identical instance bases with and without a shared MatchCache.
func TestBatchedMatchesUnbatched(t *testing.T) {
	const wrappers = 8
	fetch := MapFetcher{"fleet": htmlparse.Parse(fleetPage(40))}
	run := func(mc *MatchCache) []string {
		var dumps []string
		for i := 0; i < wrappers; i++ {
			ev := NewEvaluator(fetch)
			ev.Shared = mc
			base, err := ev.RunCompiled(MustCompile(fleetProgram("fleet")))
			if err != nil {
				t.Fatal(err)
			}
			dumps = append(dumps, base.Dump())
		}
		return dumps
	}
	plain := run(nil)
	mc := NewMatchCache()
	batched := run(mc)
	for i := range plain {
		if plain[i] != batched[i] {
			t.Errorf("wrapper %d: batched base diverges from unbatched:\n--- unbatched ---\n%s--- batched ---\n%s",
				i, plain[i], batched[i])
		}
	}
	hits, misses := mc.Stats()
	if hits == 0 {
		t.Fatalf("shared cache never hit (hits=%d misses=%d): fleet wrappers are not sharing matches", hits, misses)
	}
	// Only the first wrapper should compute matches; the remaining
	// wrappers' lookups must be answered by the shared cache.
	if hits < misses*(wrappers-2) {
		t.Errorf("shared cache hits=%d misses=%d: expected the fleet to be almost entirely hits", hits, misses)
	}
}

// TestMatchCacheSignatureIsolation: wrappers whose paths differ must
// not see each other's results even on the same document.
func TestMatchCacheSignatureIsolation(t *testing.T) {
	fetch := MapFetcher{"fleet": htmlparse.Parse(fleetPage(5))}
	mc := NewMatchCache()
	runOne := func(src string, pattern string) int {
		ev := NewEvaluator(fetch)
		ev.Shared = mc
		base, err := ev.RunCompiled(MustCompile(MustParse(src)))
		if err != nil {
			t.Fatal(err)
		}
		return len(base.Instances(pattern))
	}
	names := runOne(`
page(S, X) <- document("fleet", S), subelem(S, .body, X)
cell(S, X) <- page(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
`, "cell")
	prices := runOne(`
page(S, X) <- document("fleet", S), subelem(S, .body, X)
cell(S, X) <- page(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, "cell")
	if names != 5 || prices != 5 {
		t.Fatalf("names=%d prices=%d, want 5 and 5 (signature collision across distinct paths?)", names, prices)
	}
}

// TestMatchCacheAttach pins the batch-size accounting.
func TestMatchCacheAttach(t *testing.T) {
	mc := NewMatchCache()
	if got := mc.Attached(); got != 0 {
		t.Fatalf("fresh cache attached = %d", got)
	}
	mc.Attach()
	mc.Attach()
	if got := mc.Attached(); got != 2 {
		t.Fatalf("attached = %d, want 2", got)
	}
	mc.Detach()
	if got := mc.Attached(); got != 1 {
		t.Fatalf("after detach attached = %d, want 1", got)
	}
	r := mc.Report()
	if r.Attached != 1 {
		t.Fatalf("report attached = %d, want 1", r.Attached)
	}
}

// TestOwnMemoFirstUse: unattached evaluations racing on a freshly
// compiled program all memoize in the one memo the program creates, so
// its whole-context probes add up to the program's match calls.
func TestOwnMemoFirstUse(t *testing.T) {
	fetch := MapFetcher{"fleet": htmlparse.Parse(fleetPage(40))}
	fetch["fleet"].Warm()
	cp := MustCompile(fleetProgram("fleet"))
	dumps := make([]string, 8)
	var wg sync.WaitGroup
	for i := range dumps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base, err := NewEvaluator(fetch).RunCompiled(cp)
			if err != nil {
				t.Error(err)
				return
			}
			dumps[i] = base.Dump()
		}()
	}
	wg.Wait()
	for i := range dumps {
		if dumps[i] != dumps[0] {
			t.Fatalf("run %d diverges from run 0:\n%s\n---\n%s", i, dumps[0], dumps[i])
		}
	}
	hits, misses := cp.Stats()
	if st := cp.own.Load().Report(); st.Hits != hits || st.Misses != misses || hits == 0 {
		t.Errorf("own memo counted %d hits, %d misses; the program made %d hits, %d misses", st.Hits, st.Misses, hits, misses)
	}
}
