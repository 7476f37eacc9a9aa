package xpath

import (
	"sync"

	"repro/internal/dom"
)

// Compiled is a parsed and analyzed query: a reusable value that picks
// the right evaluator once (the linear Core algorithm when the path is
// in Core XPath, the context-value-table algorithm otherwise) and
// memoizes whole-document results keyed by the tree's content
// fingerprint. Compiling once and evaluating many times is the server
// usage pattern: repeated evaluations over unchanged documents cost one
// fingerprint check.
type Compiled struct {
	// Path is the parsed query (read-only after Compile).
	Path *Path
	core bool

	mu    sync.Mutex
	cache map[uint64][]dom.NodeID
}

// compiledCacheMax bounds the per-query fingerprint cache; when full
// the cache is reset (documents seen by one query rarely exceed this).
const compiledCacheMax = 64

// Compile parses and analyzes a query.
func Compile(src string) (*Compiled, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompilePath(p), nil
}

// MustCompile is Compile that panics on error, for tests and
// package-level query values.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// CompilePath analyzes an already-parsed path.
func CompilePath(p *Path) *Compiled {
	return &Compiled{Path: p, core: p.IsCore()}
}

// IsCore reports whether the query is evaluated by the linear-time Core
// XPath algorithm.
func (c *Compiled) IsCore() bool { return c.core }

func (c *Compiled) String() string { return c.Path.String() }

// Eval evaluates the query on t from the given context (nil = root),
// dispatching to EvalCore or EvalFull. Results are in document order.
func (c *Compiled) Eval(t *dom.Tree, context []dom.NodeID) ([]dom.NodeID, error) {
	if c.core {
		return EvalCore(c.Path, t, context)
	}
	return EvalFull(c.Path, t, context)
}

// EvalCached evaluates the query from the root context, memoizing the
// result per tree fingerprint: re-evaluating over a document whose
// content has not changed is a hash lookup plus a copy of the result
// slice.
//
// Concurrent EvalCached calls on the same Compiled are serialized by
// its lock (fingerprinting and evaluation both run under it). A parsed
// tree's deferred build is safe under concurrent first use, but the
// lazy indexes filled after it (the pre/post index, Fingerprint, the
// label bitsets) are unsynchronized, so evaluating *different*
// Compiled queries over the same tree from multiple goroutines requires
// either external synchronization or warming the tree first
// (dom.Tree.Warm).
func (c *Compiled) EvalCached(t *dom.Tree) ([]dom.NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := t.Fingerprint()
	if nodes, ok := c.cache[fp]; ok {
		return append([]dom.NodeID(nil), nodes...), nil
	}
	nodes, err := c.Eval(t, nil)
	if err != nil {
		return nil, err
	}
	if c.cache == nil || len(c.cache) >= compiledCacheMax {
		c.cache = make(map[uint64][]dom.NodeID, 8)
	}
	c.cache[fp] = nodes
	return append([]dom.NodeID(nil), nodes...), nil
}
