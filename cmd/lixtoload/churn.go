package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Churn mode drives the write side of the storm: it registers a
// catalogue wrapper on the target server (requires -allow-dynamic),
// then re-extracts it every interval with a page version in which only
// a small contiguous window of rows changed. The server's long-lived
// compiled wrapper keeps its content-addressed subtree caches across
// versions, so the unchanged rows' matches are reused and only the
// dirty window runs the matcher — the summary prints the server's
// subtree_hits / reused_nodes counters so the effect is visible from
// the outside.

// churnProgram extracts per-row contexts, the granularity the
// incremental evaluator reuses between page versions.
const churnProgram = `page(S, X)  <- document("churn", S), subelem(S, .body, X)
row(S, X)   <- page(_, S), subelem(S, ?.tr, X)
title(S, X) <- row(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

type churner struct {
	client *http.Client
	base   string // server URL prefix
	name   string // wrapper name
	rows   int
	dirty  int // rows rewritten per tick
	seed   int64

	// version[i] counts how often row i has been rewritten; the page is
	// a pure function of (seed, versions), so churn is reproducible.
	version []int
	step    int

	extracts atomic.Int64
	errors   atomic.Int64
}

func newChurner(client *http.Client, base, name string, rows int, frac float64, seed int64) *churner {
	if rows < 1 {
		rows = 1
	}
	dirty := int(float64(rows) * frac)
	if dirty < 1 {
		dirty = 1
	}
	if dirty > rows {
		dirty = rows
	}
	return &churner{client: client, base: base, name: name,
		rows: rows, dirty: dirty, seed: seed, version: make([]int, rows)}
}

// render produces the current page version.
func (c *churner) render() string {
	var b strings.Builder
	b.WriteString("<html><body><table>\n")
	for i, v := range c.version {
		mix := c.seed + int64(i)*31 + int64(v)*17
		fmt.Fprintf(&b, `<tr class="item"><td class="title">Item %d</td><td class="price">%d.%02d</td></tr>`+"\n",
			i, 10+mix%90, (mix*7)%100)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

// install (re)registers the churn wrapper over the initial page.
func (c *churner) install() error {
	req, _ := http.NewRequest("DELETE", c.base+"/v1/wrappers/"+c.name, nil)
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	body, _ := json.Marshal(map[string]any{
		"name": c.name, "program": churnProgram, "html": c.render(),
		"auxiliary": []string{"page"}, "root": "catalogue",
	})
	resp, err := c.client.Post(c.base+"/v1/wrappers", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create wrapper %s: %d %s (is the server running with -allow-dynamic?)",
			c.name, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// tick rewrites the next contiguous window of rows and re-extracts.
func (c *churner) tick(ctx context.Context) {
	start := (c.step * c.dirty) % c.rows
	for i := 0; i < c.dirty; i++ {
		c.version[(start+i)%c.rows]++
	}
	c.step++
	body, _ := json.Marshal(map[string]any{"html": c.render()})
	req, err := http.NewRequestWithContext(ctx, "POST",
		c.base+"/v1/wrappers/"+c.name+"/extract", bytes.NewReader(body))
	if err != nil {
		c.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.errors.Add(1)
		}
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.errors.Add(1)
		return
	}
	c.extracts.Add(1)
}

// run churns until the context expires.
func (c *churner) run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.tick(ctx)
		}
	}
}

// report prints the server-side incremental counters for the churned
// wrapper.
func (c *churner) report() {
	fmt.Printf("\nchurn: %d extractions (%d errors), %d/%d rows per tick\n",
		c.extracts.Load(), c.errors.Load(), c.dirty, c.rows)
	resp, err := c.client.Get(c.base + "/v1/wrappers")
	if err != nil {
		fmt.Println("churn: stats unavailable:", err)
		return
	}
	defer resp.Body.Close()
	var listing struct {
		Wrappers []struct {
			Name       string `json:"name"`
			Extraction *struct {
				SubtreeHits   uint64 `json:"subtree_hits"`
				SubtreeMisses uint64 `json:"subtree_misses"`
				DirtyNodes    uint64 `json:"dirty_nodes"`
				ReusedNodes   uint64 `json:"reused_nodes"`
				// Maintenance counters.
				InstancesGrafted   uint64 `json:"instances_grafted"`
				EvalFallbacks      uint64 `json:"eval_fallbacks"`
				InstancesUnchanged uint64 `json:"instances_unchanged"`
				InstancesAdded     uint64 `json:"instances_added"`
				EvalNS             uint64 `json:"eval_ns"`
			} `json:"extraction"`
		} `json:"wrappers"`
		MatchCache *struct {
			Entries   int    `json:"entries"`
			Evictions uint64 `json:"evictions"`
		} `json:"match_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		fmt.Println("churn: stats unavailable:", err)
		return
	}
	for _, w := range listing.Wrappers {
		if w.Name != c.name || w.Extraction == nil {
			continue
		}
		e := w.Extraction
		fmt.Printf("server incremental: subtree_hits=%d subtree_misses=%d reused_nodes=%d dirty_nodes=%d eval=%s\n",
			e.SubtreeHits, e.SubtreeMisses, e.ReusedNodes, e.DirtyNodes, time.Duration(e.EvalNS))
		if total := e.ReusedNodes + e.DirtyNodes; total > 0 {
			fmt.Printf("server incremental: %.1f%% of context nodes reused across versions\n",
				100*float64(e.ReusedNodes)/float64(total))
		}
		// Unchanged rows are grafted from the previous tick's base, so
		// they never reach the subtree match cache counted above.
		fmt.Printf("server maintenance: instances_grafted=%d eval_fallbacks=%d instances_unchanged=%d instances_added=%d\n",
			e.InstancesGrafted, e.EvalFallbacks, e.InstancesUnchanged, e.InstancesAdded)
	}
	if listing.MatchCache != nil {
		fmt.Printf("server match cache: %d entries, %d evictions\n",
			listing.MatchCache.Entries, listing.MatchCache.Evictions)
	}
}
