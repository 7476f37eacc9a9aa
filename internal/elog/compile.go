package elog

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/nodeset"
)

// CompiledProgram is a parsed and analyzed Elog program: a reusable
// value mirroring the xpath.Compile design. Compiling resolves the
// stratification once and lowers every element path definition onto
// the packed-bitset kernel — each tag test becomes a word-parallel
// intersection with the document's interned-label bitsets
// (dom.LabelBits via internal/nodeset), with per-node work left only
// for the attribute/variable conditions. Per-document match results
// are memoized keyed on the tree's content fingerprint, so re-wrapping
// an unchanged page costs hash lookups instead of tree walks. The memo
// is a MatchCache: the evaluator's shared one, or one the program
// creates for its unattached runs (see memo).
//
// A CompiledProgram is safe for concurrent use: multiple evaluators
// (server ticks, parallel Run calls) may share one, provided the
// document trees themselves are not shared unwarmed between goroutines
// (the crawl frontier warms every tree it fetches; see dom.Tree.Warm).
type CompiledProgram struct {
	// Program is the source program (read-only after Compile).
	Program *Program
	strata  [][]*Rule
	// waves caches planWaves per stratum, so evaluation does not re-plan
	// the concurrency structure on every run.
	waves [][]wave
	epds  map[*EPD]*compiledEPD

	hits, misses atomic.Uint64

	// Incremental-matching counters (see Evaluator.Incremental):
	// subHits/subMisses count per-root subtree-fingerprint lookups,
	// reusedNodes/dirtyNodes the document nodes those roots covered.
	subHits, subMisses      atomic.Uint64
	reusedNodes, dirtyNodes atomic.Uint64

	// instances is the last successful evaluation's instance count, fresh
	// how many of them it derived rather than grafted: the size hints of
	// the next one's instance base and dedup table.
	instances, fresh atomic.Int64

	// rules numbers the rules (pib.Instance.Rule) and marks the
	// parent-local ones, which a maintained evaluation grafts.
	rules map[*Rule]ruleInfo
	// Maintenance counters (see IncrementalStats).
	grafted, fallbacks atomic.Uint64

	// own is the match memo of runs without a shared MatchCache, created
	// by the first of them.
	own atomic.Pointer[MatchCache]
}

// Compile stratifies the program and lowers its element path
// definitions for bitset execution. It fails exactly when Run would:
// on programs with a cycle through a negated pattern reference.
func Compile(p *Program) (*CompiledProgram, error) {
	strata, err := Stratify(p)
	if err != nil {
		return nil, err
	}
	waves := make([][]wave, len(strata))
	for i, rules := range strata {
		waves[i] = planWaves(rules)
	}
	cp := &CompiledProgram{Program: p, strata: strata, waves: waves, epds: map[*EPD]*compiledEPD{},
		rules: make(map[*Rule]ruleInfo, len(p.Rules))}
	for i, r := range p.Rules {
		// Instance.Rule numbers at most 65 535 rules; a larger program
		// (none is that large) would not graft.
		cp.rules[r] = ruleInfo{no: uint16(i + 1), local: nonLocal(p, r) == "" && len(p.Rules) < 1<<16}
	}
	add := func(e *EPD) {
		if e != nil && cp.epds[e] == nil {
			cp.epds[e] = newCompiledEPD(e)
		}
	}
	for _, r := range p.Rules {
		if r.Extract != nil {
			// Subsq Start/End are SelfMatch-only delimiters (per-node
			// checks on already-selected children); nothing to lower.
			add(r.Extract.EPD)
			add(r.Extract.From)
		}
		for _, c := range r.Conds {
			switch cc := c.(type) {
			case BeforeCond:
				add(cc.EPD)
			case ContainsCond:
				add(cc.EPD)
			}
		}
	}
	return cp, nil
}

// ruleInfo is a rule's provenance number and whether it is parent-local.
type ruleInfo struct {
	no    uint16
	local bool
}

// nonLocal returns "" when what the rule derives under a parent instance
// is a function of that instance's subtree alone — monadic datalog over
// trees derives locally (Gottlob & Koch) — and else the construct that
// reaches outside it. Local are subelem, subsq, subtext and subatt
// extraction and specialisation, with EPD-internal, contains, concept,
// comparison and firstsubtree conditions, and before/after, which match
// inside the parent at relative distances; not so pattern references,
// getDocument, self-recursion, before/after in a specialisation (they
// scope at the parent's parent), and any rule whose head and parent it
// shares with a non-local rule (their derivations deduplicate against
// each other).
func nonLocal(p *Program, r *Rule) string {
	if why := ownNonLocal(r); why != "" {
		return why
	}
	for i, q := range p.Rules {
		if q != r && q.Head == r.Head && q.Parent == r.Parent && ownNonLocal(q) != "" {
			return fmt.Sprintf("shares head and parent with rule %d", i+1)
		}
	}
	return ""
}

// ownNonLocal is nonLocal without the look at the other rules.
func ownNonLocal(r *Rule) string {
	switch {
	case r.DocURL != "":
		return "entry rule"
	case r.Extract != nil && r.Extract.Kind == GetDocument:
		return "getDocument"
	case r.Parent == r.Head:
		return "self-recursive"
	}
	for _, c := range r.Conds {
		switch cc := c.(type) {
		case PatternRefCond:
			return "pattern reference " + cc.String()
		case BeforeCond:
			if r.Specialize {
				return cc.String() + " in a specialisation"
			}
		}
	}
	return ""
}

// MustCompile panics on error, for tests and package-level wrappers.
func MustCompile(p *Program) *CompiledProgram {
	cp, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return cp
}

// memo returns the one match memo an evaluation consults: the
// evaluator's shared cache when it is set, else the program's own,
// LRU-bounded at DefaultMatchCacheEntries.
func (cp *CompiledProgram) memo(shared *MatchCache) *MatchCache {
	if shared != nil {
		return shared
	}
	if mc := cp.own.Load(); mc != nil {
		return mc
	}
	cp.own.CompareAndSwap(nil, NewMatchCache())
	return cp.own.Load()
}

// Stats returns the cumulative fingerprint-cache counters across all
// compiled paths: hits are match calls answered without touching the
// document tree. A call is one rule application — a subelem rule makes
// one for the whole set of its parents in a document (see
// ruleCandidates), a context condition one per candidate — so the
// counters do not scale with the number of parent instances.
func (cp *CompiledProgram) Stats() (hits, misses uint64) {
	return cp.hits.Load(), cp.misses.Load()
}

// IncrementalStats is a snapshot of the incremental counters.
// SubtreeHits/SubtreeMisses count per-root subtree-fingerprint lookups
// during incremental matching, ReusedNodes/DirtyNodes the document
// nodes under those roots — reused nodes were resolved from cache
// without touching the tree, dirty nodes ran the bitset matcher.
// InstancesGrafted counts the instances maintained evaluations copied
// from their previous base instead of deriving them, EvalFallbacks the
// maintained evaluations that derived some of the base on the full path
// (see RunMaintained).
type IncrementalStats struct {
	SubtreeHits      uint64 `json:"subtree_hits"`
	SubtreeMisses    uint64 `json:"subtree_misses"`
	ReusedNodes      uint64 `json:"reused_nodes"`
	DirtyNodes       uint64 `json:"dirty_nodes"`
	InstancesGrafted uint64 `json:"instances_grafted"`
	EvalFallbacks    uint64 `json:"eval_fallbacks"`
}

// Incremental returns the cumulative incremental counters (all zero
// unless some evaluator ran with Incremental set or RunMaintained).
func (cp *CompiledProgram) Incremental() IncrementalStats {
	return IncrementalStats{
		SubtreeHits:      cp.subHits.Load(),
		SubtreeMisses:    cp.subMisses.Load(),
		ReusedNodes:      cp.reusedNodes.Load(),
		DirtyNodes:       cp.dirtyNodes.Load(),
		InstancesGrafted: cp.grafted.Load(),
		EvalFallbacks:    cp.fallbacks.Load(),
	}
}

// compiledEPD is one lowered element path definition: the path, its
// deep variant (implicit leading descent, used by context and internal
// conditions) and its signature. It holds no results; those live in the
// evaluation's match memo.
type compiledEPD struct {
	epd  *EPD
	deep *EPD
	// sig is a hash of the path's canonical form: the identity under
	// which structurally equal paths — of one program or of different
	// programs sharing a MatchCache — share match results.
	sig uint64
}

func newCompiledEPD(e *EPD) *compiledEPD {
	return &compiledEPD{
		epd:  e,
		deep: &EPD{Steps: append([]EPDStep{{Kind: "deep"}}, e.Steps...), Conds: e.Conds},
		sig:  hashString(e.sigString()),
	}
}

// path returns the plain or the deep variant.
func (ce *compiledEPD) path(deep bool) *EPD {
	if deep {
		return ce.deep
	}
	return ce.epd
}

// match evaluates the path over the bitset kernel for the evaluation
// r, memoized in its match memo (CompiledProgram.memo) per path
// signature, document fingerprint and context set. The returned slice
// and the binds maps inside it are shared cache entries: callers must
// treat them as read-only, which every evaluator call site does
// (bindings are copied into fresh maps before use).
func (ce *compiledEPD) match(r *runner, t *dom.Tree, roots []dom.NodeID, asChildren, deep bool) []epdMatch {
	cp, mc := r.cp, r.cp.memo(r.ev.Shared)
	key := matchKey{sig: ce.sig, fp: t.Fingerprint(), roots: hashNodes(roots), asChildren: asChildren, deep: deep}
	if m, ok := mc.get(key); ok {
		cp.hits.Add(1)
		return m
	}
	cp.misses.Add(1)
	var m []epdMatch
	ok := false
	if r.ev.Incremental {
		m, ok = ce.matchIncremental(cp, mc, t, roots, asChildren, deep)
	}
	if !ok {
		m = bitsetMatch(ce.path(deep), t, roots, asChildren)
	}
	mc.put(key, m)
	return m
}

// matchIncremental answers a match miss from the content-addressed
// subtree entries of mc: each context root whose subtree fingerprint
// was seen before — in an earlier version of the document, in another
// document, or in another wrapper's run sharing mc — re-materializes
// its cached per-root result by offset translation, and only the
// remaining dirty roots run the bitset matcher (in one batched call).
//
// A subtree entry stores each match at its offset from the root. On
// document-ordered trees the subtree of root r occupies exactly the
// contiguous id range [r, r+size), and equal-content subtrees lay out
// their nodes at equal offsets, so r+off re-materializes the match in
// any document carrying an identical subtree at any position. The binds
// maps are shared with the original computation (read-only by the
// evaluator convention).
//
// Correctness rests on two facts checked here: EPD matches from a root
// depend only on that root's subtree (navigation only descends,
// conditions are subtree-local), and on document-ordered trees disjoint
// subtrees occupy disjoint contiguous id ranges, so the per-root
// results concatenated in ascending root order equal the batched
// document-order output exactly. Trees whose ids are not document
// order, or overlapping context roots, report ok=false and fall back to
// the plain batched path.
func (ce *compiledEPD) matchIncremental(cp *CompiledProgram, mc *MatchCache, t *dom.Tree, roots []dom.NodeID, asChildren, deep bool) ([]epdMatch, bool) {
	if len(roots) == 0 || !t.DocOrdered() {
		return nil, false
	}
	disjoint := func(rs []dom.NodeID) bool {
		for i := 1; i < len(rs); i++ {
			if int(rs[i]) < int(rs[i-1])+t.SubtreeSize(rs[i-1]) {
				return false
			}
		}
		return true
	}
	// The parents of a rule are committed in document order, so the
	// roots usually ascend already; sort a copy only when they do not.
	sorted := roots
	if !disjoint(sorted) {
		sorted = slices.Compact(slices.Sorted(slices.Values(roots)))
		if !disjoint(sorted) {
			return nil, false
		}
	}
	subKeyOf := func(r dom.NodeID) matchKey {
		return matchKey{sig: ce.sig, fp: t.SubtreeHash(r), asChildren: asChildren, deep: deep, sub: true}
	}
	rels := make([][]epdMatch, len(sorted))
	var dirty []dom.NodeID
	var total, reused, dirtied int
	for i, r := range sorted {
		if rel, ok := mc.get(subKeyOf(r)); ok {
			rels[i] = rel
			total += len(rel)
			reused += t.SubtreeSize(r)
		} else {
			dirty = append(dirty, r)
			dirtied += t.SubtreeSize(r)
		}
	}
	cp.subHits.Add(uint64(len(sorted) - len(dirty)))
	cp.subMisses.Add(uint64(len(dirty)))
	cp.reusedNodes.Add(uint64(reused))
	cp.dirtyNodes.Add(uint64(dirtied))
	var all []epdMatch
	if len(dirty) > 0 {
		all = bitsetMatch(ce.path(deep), t, dirty, asChildren)
	}
	// One pass in root order fills the flat document-ordered result: a
	// clean root translates its cached offsets, a dirty root takes its
	// id range of the batched match and publishes it for next time.
	out := make([]epdMatch, 0, total+len(all))
	fresh := make([]epdMatch, len(all))
	j := 0
	for i, r := range sorted {
		if len(dirty) == 0 || dirty[0] != r {
			for _, m := range rels[i] {
				out = append(out, epdMatch{node: r + m.node, binds: m.binds})
			}
			continue
		}
		dirty = dirty[1:]
		lo, end := j, r+dom.NodeID(t.SubtreeSize(r))
		for ; j < len(all) && all[j].node < end; j++ {
			fresh[j] = epdMatch{node: all[j].node - r, binds: all[j].binds}
		}
		out = append(out, all[lo:j]...)
		var rel []epdMatch
		if j > lo {
			rel = fresh[lo:j:j]
		}
		mc.put(subKeyOf(r), rel)
	}
	if len(out) == 0 {
		return nil, true
	}
	return out, true
}

// bitsetMatch is the compiled analogue of EPD.Match: each step advances
// a packed node set — descent is a single-sweep DescendantsOrSelf
// image, tag tests are word-parallel intersections with the interned
// labels' characteristic bitsets — and only the attribute conditions
// fall back to per-node checks. Matches come out in document order;
// the interpreter's discovery order can differ, but the match sets are
// identical and every downstream consumer is order-insensitive (the
// XML transformer re-sorts siblings by document order).
func bitsetMatch(e *EPD, t *dom.Tree, roots []dom.NodeID, rootsAsChildren bool) []epdMatch {
	ctx := nodeset.FromSlice(t, roots)
	for si := range e.Steps {
		step := &e.Steps[si]
		if step.Kind == "deep" {
			ctx = nodeset.DescendantsOrSelf(t, ctx)
			continue
		}
		cand := ctx
		if !(si == 0 && rootsAsChildren) {
			cand = nodeset.Children(t, ctx)
		}
		switch step.Kind {
		case "tag":
			sel := nodeset.New(t)
			orTag := func(tag string) {
				if id := t.LabelIDFor(tag); id != dom.NoLabel {
					sel.OrWords(t.LabelBits(id))
				}
			}
			orTag(step.Tag)
			for _, alt := range step.Alts {
				orTag(alt)
			}
			ctx = cand.And(sel).AndWords(t.KindBits(dom.Element))
		case "star":
			ctx = cand.AndWords(t.KindBits(dom.Element))
		default: // "content": any child node
			ctx = cand
		}
		if ctx.Empty() {
			return nil
		}
	}
	return e.applyConds(t, ctx.Nodes(t))
}

// hashString is FNV-1a over a string.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// hashNodes is FNV-1a over the context node ids.
func hashNodes(nodes []dom.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, n := range nodes {
		h = (h ^ uint64(uint32(n))) * prime64
	}
	return h
}
