package elog

import (
	"runtime"
	"sync"

	"repro/internal/dom"
	"repro/internal/pib"
)

// fetchResult is one page's in-flight (or finished) retrieval.
type fetchResult struct {
	done chan struct{}
	tree *dom.Tree
	err  error
}

// frontier is the concurrent crawl frontier of one evaluator run: URLs
// are announced with prefetch as soon as rule application discovers
// them, a bounded worker pool fetches, parses, and warms the documents
// in parallel, and the evaluation goroutine consumes them with get in
// its own deterministic order — so the pattern instance base comes out
// identical to a serial crawl while the fetch latencies overlap.
type frontier struct {
	fetch Fetcher
	sem   chan struct{}
	wg    sync.WaitGroup
	// budget caps how many distinct URLs speculative prefetches may
	// schedule — the evaluator's crawl limit, so a run aborted at
	// MaxDocuments never has more than that many fetches in flight.
	// Demand-driven gets are exempt: the evaluator accounts those
	// against the crawl limit itself before asking.
	budget int
	// warmFull selects how much of each tree the worker warms: the
	// compiled matcher reads bitsets and fingerprints, the interpreter
	// only the pre/post index.
	warmFull bool
	// prev is the base the run is maintained from, or nil: a fully
	// warmed page is built from prev's tree of the same URL.
	prev *pib.Base
	// own is set when the run's caller owns the pages: an unbuilt page
	// is adopted (dom.Adopt) before it is built.
	own bool

	mu    sync.Mutex
	pages map[string]*fetchResult
}

// newFrontier returns a frontier fetching at most conc pages at once
// (conc <= 0 means GOMAXPROCS) and speculatively scheduling at most
// budget distinct URLs.
func newFrontier(f Fetcher, conc, budget int, warmFull bool, prev *pib.Base, own bool) *frontier {
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	return &frontier{fetch: f, sem: make(chan struct{}, conc), budget: budget,
		warmFull: warmFull, prev: prev, own: own, pages: map[string]*fetchResult{}}
}

// last returns prev's tree of url, the earlier version of the page, or
// nil.
func (fr *frontier) last(url string) *dom.Tree {
	if fr.prev == nil {
		return nil
	}
	for _, in := range fr.prev.Instances("document") {
		if in.URL == url {
			return in.Doc
		}
	}
	return nil
}

// prefetch speculatively schedules url for retrieval, within the
// frontier's budget; a URL already scheduled is not fetched twice.
func (fr *frontier) prefetch(url string) { fr.schedule(url, false) }

func (fr *frontier) schedule(url string, force bool) *fetchResult {
	fr.mu.Lock()
	if res, ok := fr.pages[url]; ok {
		// Failures are not served from cache: the seed interpreter
		// attempted a fresh fetch on every consumption, so transient
		// errors (an HTTP fetcher's one-off timeout) could heal across
		// fixpoint iterations. A forced get on a completed failure
		// therefore retries; successes stay cached for the run.
		retry := false
		if force {
			select {
			case <-res.done:
				retry = res.err != nil
			default:
			}
		}
		if !retry {
			fr.mu.Unlock()
			return res
		}
	} else if !force && len(fr.pages) >= fr.budget {
		fr.mu.Unlock()
		return nil
	}
	res := &fetchResult{done: make(chan struct{})}
	fr.pages[url] = res
	fr.mu.Unlock()
	fr.wg.Add(1)
	go func() {
		defer fr.wg.Done()
		fr.sem <- struct{}{}
		defer func() { <-fr.sem }()
		t, err := fr.fetch.Fetch(url)
		if err == nil {
			if fr.own {
				// The fetcher's tree may be shared (a fetch cache, a
				// caller's input): the run builds, and its owner later
				// recycles, a private tree over the same source. A
				// built tree is someone else's and is read as it is.
				if o := dom.Adopt(t); o != nil {
					t = o
				}
			}
			// Build the lazy structures on the worker, off the
			// evaluation goroutine's critical path; the published tree
			// is then read-only for the rest of the run. A changed page
			// re-parses only the bytes in which it differs from its
			// last version (dom.Tree.WarmFrom, which only reads that
			// tree and serializes workers handed one tree under two
			// URLs).
			if fr.warmFull {
				t.WarmFrom(fr.last(url))
			} else {
				t.WarmIndex()
			}
		}
		res.tree, res.err = t, err
		close(res.done)
	}()
	return res
}

// get blocks until url's page is available, scheduling the fetch if it
// was never announced (or was announced beyond the prefetch budget).
func (fr *frontier) get(url string) (*dom.Tree, error) {
	res := fr.schedule(url, true)
	<-res.done
	return res.tree, res.err
}

// drain waits for every outstanding fetch, so a run never leaves
// workers touching the Fetcher after it returns.
func (fr *frontier) drain() { fr.wg.Wait() }
