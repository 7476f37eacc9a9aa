package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const oneShotProg = `page(S, X) <- document("shop.test/list", S), subelem(S, .body, X)
row(S, X)  <- page(_, S), subelem(S, ?.tr, X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)`

func oneShotPage(rows int) string {
	var sb strings.Builder
	sb.WriteString("<html><body><table>")
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&sb, `<tr><td class="name">item %d</td><td>$ %d</td></tr>`, r, 10+r)
	}
	sb.WriteString("</table></body></html>")
	return sb.String()
}

// outputCounters reads the output-cache counters and the memo hits of
// one wrapper from GET /v1/wrappers/{name}.
func outputCounters(t *testing.T, base, name string) (built, reused, hits uint64) {
	t.Helper()
	code, body, _ := do(t, "GET", base+"/v1/wrappers/"+name, nil)
	if code != 200 {
		t.Fatalf("GET wrapper: %d %s", code, body)
	}
	var info struct {
		Extraction struct {
			Built  uint64 `json:"output_built_nodes"`
			Reused uint64 `json:"output_reused_nodes"`
			Hits   uint64 `json:"poll_cache_hits"`
		} `json:"extraction"`
	}
	if err := jsonUnmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.Extraction.Built, info.Extraction.Reused, info.Extraction.Hits
}

// countElements counts the element nodes of an output document.
func countElements(n *xmlenc.Node) uint64 {
	total := uint64(1)
	for _, c := range n.Children {
		total += countElements(c)
	}
	return total
}

// TestOneShotSharesTickOutputCache pins that a one-shot extraction
// (POST .../extract) shares the wrapper state the scheduled ticks fill:
// re-extracting the unchanged page is answered from the wrapper's memo
// of the tick's result, building and splicing nothing, and a changed
// page renders through the ticks' output cache, reusing every instance
// subtree of the tick's document.
func TestOneShotSharesTickOutputCache(t *testing.T) {
	s := New(Config{AllowDynamic: true, MaxCompilesPerMinute: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers", map[string]any{
		"name": "list", "program": oneShotProg, "html": oneShotPage(12), "auxiliary": []string{"page"},
	})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	built0, reused0, hits0 := outputCounters(t, ts.URL, "list")
	if built0 == 0 {
		t.Fatal("registration tick built no output nodes")
	}
	tick := s.readPipe("list").p.Output().Latest()
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/list/extract", map[string]any{}); code != 200 {
		t.Fatalf("extract: %d %s", code, body)
	}
	built, reused, hits := outputCounters(t, ts.URL, "list")
	if built != built0 || reused != reused0 || hits != hits0+1 {
		t.Errorf("one-shot extract of the unchanged page: built %d, reused %d output nodes, %d memo hits; want 0, 0, 1",
			built-built0, reused-reused0, hits-hits0)
	}
	if s.readPipe("list").p.Output().Latest() != tick {
		t.Error("the memo's answer is not the tick's document")
	}
	// A changed page (one more row): everything below the tick's root is
	// spliced from the cache, and only the new row is built.
	if code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers/list/extract", map[string]any{"html": oneShotPage(13)}); code != 200 {
		t.Fatalf("extract: %d %s", code, body)
	}
	built2, reused2, _ := outputCounters(t, ts.URL, "list")
	if want := countElements(tick) - 1; reused2-reused != want {
		t.Errorf("one-shot extract of the changed page reused %d output nodes, want the tick document's %d", reused2-reused, want)
	}
	if n := countElements(s.readPipe("list").p.Output().Latest()); built2-built >= n {
		t.Errorf("one-shot extract of the changed page built %d of its %d output nodes", built2-built, n)
	}
}

// TestOneShotSharesTickOutputCacheRace runs scheduled ticks over a
// churning page against concurrent one-shot extractions through the
// same wrapper: every delivered document must be byte-identical to a
// freshly compiled wrapper's extraction of one of the page's versions.
// Run under -race.
func TestOneShotSharesTickOutputCacheRace(t *testing.T) {
	const url, seed, steps = "shop.test/list", 5, 12
	sim := web.New()
	sim.SetStatic(url, oneShotPage(40))
	churn := &web.ChurnFetcher{Inner: sim, Seed: seed}
	clk := newFakeClock()
	s := New(Config{Addr: "127.0.0.1:0", AllowDynamic: true, DynamicFetcher: churn, MaxCompilesPerMinute: -1, clock: clk})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	<-s.Ready()
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{}}
	post := func(path string, body map[string]any) (int, string) {
		data, _ := json.Marshal(body)
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := post("/v1/wrappers", map[string]any{
		"name": "list", "program": oneShotProg, "auxiliary": []string{"page"}, "interval_ms": 5,
	}); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}

	var mu sync.Mutex
	var delivered []string
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post("/v1/wrappers/list/extract", map[string]any{})
			if code != 200 {
				t.Errorf("extract: %d %s", code, body)
				return
			}
			mu.Lock()
			delivered = append(delivered, body)
			mu.Unlock()
		}()
		if i%4 == 3 && churn.Step() < steps {
			// The page changes, then a scheduled tick fires amid the
			// extractions.
			churn.Advance()
			clk.waitDue(t, 5*time.Millisecond)
			clk.Advance(5 * time.Millisecond)
		}
	}
	wg.Wait()
	recs, err := s.readPipe("list").deliver.since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		delivered = append(delivered, string(rec.XML))
	}
	client.CloseIdleConnections()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}

	cold := map[string]bool{}
	for step := 0; step <= churn.Step(); step++ {
		f := &web.ChurnFetcher{Inner: sim, Seed: seed}
		for f.Step() < step {
			f.Advance()
		}
		w := lixto.MustCompile(oneShotProg, lixto.WithAuxiliary("page"), lixto.WithFetcher(f))
		res, err := w.Extract(context.Background(), lixto.Origin())
		if err != nil {
			t.Fatal(err)
		}
		cold[xmlenc.MarshalIndent(res.XML())] = true
	}
	if len(delivered) < 50 {
		t.Fatalf("only %d deliveries", len(delivered))
	}
	distinct := map[string]bool{}
	for i, body := range delivered {
		if !cold[body] {
			t.Fatalf("delivery %d matches no cold extraction of any page version:\n%s", i, body)
		}
		distinct[body] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("deliveries span %d page versions; the churn never reached the wrapper", len(distinct))
	}
}
