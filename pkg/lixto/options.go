package lixto

import (
	"repro/internal/concepts"
	"repro/internal/elog"
	"repro/internal/pib"
)

// config carries the wrapper's tunables. A Wrapper holds the config it
// was compiled with; Extract/ExtractAll clone it and apply per-call
// options, so per-call overrides never leak into the shared wrapper.
type config struct {
	concurrency       int
	cache             bool
	incrementalOutput bool
	maxDocuments      int
	maxInstances      int
	fetcher           elog.Fetcher
	batch             *elog.MatchCache
	concepts          *concepts.Base
	design            *pib.Design
	// designOwned is true once this config's design is a private copy
	// (per-call design edits copy-on-write the wrapper's design).
	designOwned bool
}

func defaultConfig() config {
	return config{
		cache:       true,
		design:      &pib.Design{Auxiliary: map[string]bool{"document": true}},
		designOwned: true,
	}
}

func (c config) clone() config {
	out := c
	out.designOwned = false
	return out
}

// editDesign returns a design this config may mutate, copying the
// wrapper's design on first per-call edit.
func (c *config) editDesign() *pib.Design {
	if c.designOwned {
		return c.design
	}
	d := *c.design
	d.Auxiliary = cloneSet(c.design.Auxiliary)
	d.Rename = cloneMap(c.design.Rename)
	d.SuppressText = cloneSet(c.design.SuppressText)
	d.AlwaysText = cloneSet(c.design.AlwaysText)
	c.design = &d
	c.designOwned = true
	return c.design
}

func cloneSet(m map[string]bool) map[string]bool {
	if m == nil {
		return nil
	}
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Option tunes compilation and extraction. Options passed to Compile
// become the wrapper's defaults; options passed to Extract/ExtractAll
// override them for that call only.
type Option func(*config)

// WithConcurrency bounds how many documents the crawl frontier fetches
// and parses in parallel during one extraction (0 = GOMAXPROCS). It is
// also the fan-out bound of ExtractAll.
func WithConcurrency(n int) Option {
	return func(c *config) { c.concurrency = n }
}

// WithCache toggles the compiled execution path and its
// fingerprint-keyed match memo (default on): one bounded cache, the
// compiled program's own unless WithBatching attaches a fleet-shared
// one. With caching off,
// extraction runs on the seed interpreter: slower, but sharing no
// mutable state across calls — the reference semantics.
func WithCache(enabled bool) Option {
	return func(c *config) { c.cache = enabled }
}

// WithIncrementalOutput toggles cross-extraction output reuse (default
// off). With it on, the wrapper retains the last Result it rendered: an
// extraction over unchanged pages returns it (see the package doc), and
// a changed one is maintained from its instance base and emitted XML
// subtrees: Result.XML splices frozen, already-built subtrees for every
// instance whose content-addressed output hash is unchanged and
// rebuilds only the dirty ones — the output-side counterpart of the
// compiled program's subtree match reuse, and the same cache the
// transformation server's ticks render through. The rendered document
// is byte-identical to a full rebuild, but its subtrees are shared across
// successive Results and MUST be treated as read-only (amend via
// xmlenc's Mutable copy-on-write if needed). Extractions whose per-call
// options replace or edit the XML design fall back to a full rebuild;
// the cache follows the wrapper's compile-time design.
func WithIncrementalOutput(enabled bool) Option {
	return func(c *config) { c.incrementalOutput = enabled }
}

// WithMaxDocuments bounds how many documents one extraction may fetch
// while crawling (0 = the evaluator default, 64).
func WithMaxDocuments(n int) Option {
	return func(c *config) { c.maxDocuments = n }
}

// WithMaxInstances bounds the pattern instance base, guarding against
// runaway recursive wrappers (0 = the evaluator default, 100000).
func WithMaxInstances(n int) Option {
	return func(c *config) { c.maxInstances = n }
}

// WithFetcher sets the fetcher resolving document URLs: the source of
// Origin() and URL(...) extractions, and the continuation fetcher for
// crawling beyond an inline page. To share fetch+parse across wrappers,
// pass a fetcher wrapped once by a shared fetch cache
// (fetchcache.Cache.Wrap); inline HTML/Tree sources overlay it and stay
// private to their extraction.
func WithFetcher(f elog.Fetcher) Option {
	return func(c *config) { c.fetcher = f }
}

// WithBatching attaches extractions to a fleet-shared match cache
// (elog.NewMatchCache): every wrapper extracting through the same
// cache reuses the others' compiled pattern matches on identical
// extraction paths and unchanged pages, so a fleet of wrappers stamped
// from one template costs about one parse plus one warmed match cache
// per shared page. The extracted output is unchanged — only the
// matching work is shared. Pair with a fetcher wrapped by a shared
// fetch cache (WithFetcher(cache.Wrap(f)), see internal/fetchcache) to
// also share the fetches. Nil removes a previously set cache; WithCache(false)
// disables the compiled path and with it the batching.
func WithBatching(mc *elog.MatchCache) Option {
	return func(cfg *config) { cfg.batch = mc }
}

// WithConcepts replaces the semantic/syntactic concept base consulted
// by concept conditions (default: the built-in base).
func WithConcepts(b *concepts.Base) Option {
	return func(c *config) { c.concepts = b }
}

// WithAuxiliary marks patterns as auxiliary: they structure the wrapper
// but are omitted from the XML output, their children promoted
// tree-minor style. "document" is auxiliary by default.
func WithAuxiliary(patterns ...string) Option {
	return func(c *config) {
		d := c.editDesign()
		if d.Auxiliary == nil {
			d.Auxiliary = map[string]bool{}
		}
		for _, p := range patterns {
			d.Auxiliary[p] = true
		}
	}
}

// WithRoot sets the output document element name (default "lixto").
func WithRoot(name string) Option {
	return func(c *config) { c.editDesign().RootName = name }
}

// WithRename maps a pattern to a different XML element name.
func WithRename(pattern, element string) Option {
	return func(c *config) {
		d := c.editDesign()
		if d.Rename == nil {
			d.Rename = map[string]string{}
		}
		d.Rename[pattern] = element
	}
}

// WithDesign replaces the whole XML design (advanced; the design must
// not be mutated concurrently with extraction).
func WithDesign(d *pib.Design) Option {
	return func(c *config) {
		c.design = d
		c.designOwned = true
	}
}
