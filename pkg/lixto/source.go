package lixto

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
)

// Source selects the input of one extraction run. Construct one with
// HTML (an inline page), Tree (a pre-parsed document), URL (a page
// fetched through the wrapper's fetcher), or Origin (the program's own
// document URLs, resolved through the wrapper's fetcher).
type Source interface {
	// fetcher builds the elog.Fetcher serving this source for the given
	// program, with next as the continuation for crawled URLs (may be
	// nil).
	fetcher(ctx context.Context, p *elog.Program, next elog.Fetcher) (elog.Fetcher, error)
}

type htmlSource struct{ html string }

type treeSource struct{ tree *dom.Tree }

type urlSource struct{ url string }

type originSource struct{}

// HTML wraps an inline HTML document: every document URL the program
// mentions is served this page. Crawled links beyond the inline page
// fall through to the wrapper's fetcher, when one is configured.
func HTML(html string) Source { return htmlSource{html: html} }

// Tree wraps a pre-parsed document tree, with the same URL overlay
// semantics as HTML.
func Tree(t *dom.Tree) Source { return treeSource{tree: t} }

// URL fetches the given page through the wrapper's fetcher and serves
// it for every document URL the program mentions; crawling continues
// through the fetcher.
func URL(url string) Source { return urlSource{url: url} }

// Origin runs the program against its own document URLs, resolved
// through the wrapper's fetcher — continuous wrapping of the live
// source sites.
func Origin() Source { return originSource{} }

// overlayFetcher serves the overlay pages first and falls through to
// next for everything else (crawled links). With no continuation, a
// miss is an ordinary missing-document error, which the evaluator
// treats as a dangling link on crawl steps.
type overlayFetcher struct {
	pages map[string]*dom.Tree
	next  elog.Fetcher
}

func (o *overlayFetcher) Fetch(url string) (*dom.Tree, error) {
	if t, ok := o.pages[url]; ok {
		return t, nil
	}
	if o.next != nil {
		return o.next.Fetch(url)
	}
	return nil, fmt.Errorf("lixto: no document at %q", url)
}

// entryOverlay maps every document entry URL of the program to t.
func entryOverlay(p *elog.Program, t *dom.Tree, next elog.Fetcher) (elog.Fetcher, error) {
	pages := map[string]*dom.Tree{}
	for _, r := range p.Rules {
		if r.DocURL != "" {
			pages[r.DocURL] = t
		}
	}
	if len(pages) == 0 {
		return nil, &Error{Kind: KindEval, Msg: "program has no document entry points"}
	}
	return &overlayFetcher{pages: pages, next: next}, nil
}

func (s htmlSource) fetcher(_ context.Context, p *elog.Program, next elog.Fetcher) (elog.Fetcher, error) {
	return entryOverlay(p, htmlparse.Parse(s.html), next)
}

// InlineFetcher returns a fetcher serving the inline page at every
// document entry URL of the wrapper's program, falling through to next
// (may be nil) for crawled links — the HTML(...) source semantics as a
// reusable fetcher, e.g. for scheduled re-extraction of a fixed page.
func (w *Wrapper) InlineFetcher(html string, next elog.Fetcher) (elog.Fetcher, error) {
	return entryOverlay(w.program, htmlparse.Parse(html), next)
}

func (s treeSource) fetcher(_ context.Context, p *elog.Program, next elog.Fetcher) (elog.Fetcher, error) {
	if s.tree == nil {
		return nil, &Error{Kind: KindEval, Msg: "nil document tree"}
	}
	return entryOverlay(p, s.tree, next)
}

func (s urlSource) fetcher(ctx context.Context, p *elog.Program, next elog.Fetcher) (elog.Fetcher, error) {
	if next == nil {
		return nil, &Error{Kind: KindEval, Msg: "URL source requires a fetcher (WithFetcher)"}
	}
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindFetch, Msg: err.Error(), Err: err}
	}
	t, err := next.Fetch(s.url)
	if err != nil {
		return nil, &Error{Kind: KindFetch, Msg: fmt.Sprintf("fetch %s: %v", s.url, err), Err: err}
	}
	f, ferr := entryOverlay(p, t, next)
	if ferr != nil {
		return nil, ferr
	}
	// The page is also reachable under its own URL (crawl loops).
	f.(*overlayFetcher).pages[s.url] = t
	return f, nil
}

func (s originSource) fetcher(_ context.Context, _ *elog.Program, next elog.Fetcher) (elog.Fetcher, error) {
	if next == nil {
		return nil, &Error{Kind: KindEval, Msg: "Origin source requires a fetcher (WithFetcher)"}
	}
	return next, nil
}

// fetchError tags a fetch-boundary failure for classification without
// adding a message prefix (the evaluator wraps it with rule context;
// newError turns the whole chain into one KindFetch *Error).
type fetchError struct{ err error }

func (f fetchError) Error() string { return f.err.Error() }
func (f fetchError) Unwrap() error { return f.err }

// ctxFetcher makes extraction context-aware at fetch boundaries: every
// fetch first observes cancellation, and fetch failures are tagged as
// fetchError so they classify as KindFetch after the evaluator wraps
// them. It also records that a fetch failed (the evaluator skips a crawl
// link it cannot fetch, so the output rests on a page the memo cannot
// re-check) and adds the time spent fetching to ns. The crawl frontier
// fetches from several goroutines at once.
type ctxFetcher struct {
	ctx    context.Context
	inner  elog.Fetcher
	ns     *atomic.Int64
	failed atomic.Bool
}

func (f *ctxFetcher) Fetch(url string) (*dom.Tree, error) {
	if err := f.ctx.Err(); err != nil {
		f.failed.Store(true)
		return nil, fetchError{err: err}
	}
	start := time.Now()
	t, err := f.inner.Fetch(url)
	f.ns.Add(time.Since(start).Nanoseconds())
	if err != nil {
		f.failed.Store(true)
		var fe fetchError
		if errors.As(err, &fe) {
			return nil, err
		}
		return nil, fetchError{err: err}
	}
	return t, nil
}
