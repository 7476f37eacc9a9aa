package elog

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/concepts"
	"repro/internal/dom"
	"repro/internal/pib"
	"repro/internal/strata"
)

// errCrawlLimit marks the crawl guard tripping; unlike a dangling link,
// it aborts evaluation.
var errCrawlLimit = errors.New("elog: crawl limit")

// Fetcher resolves URLs to parsed HTML documents. The simulated web of
// internal/web provides one; tests use in-memory maps.
//
// The evaluator's crawl frontier calls Fetch from multiple goroutines,
// so fetchers must be safe for concurrent use (internal/web is; a bare
// MapFetcher is, as map reads).
type Fetcher interface {
	Fetch(url string) (*dom.Tree, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(url string) (*dom.Tree, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(url string) (*dom.Tree, error) { return f(url) }

// MapFetcher serves documents from an in-memory map.
type MapFetcher map[string]*dom.Tree

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(url string) (*dom.Tree, error) {
	if t, ok := m[url]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("elog: no document at %q", url)
}

// Evaluator runs Elog programs. The zero value is not usable; use
// NewEvaluator.
type Evaluator struct {
	// Fetcher resolves document(url, S) atoms and getDocument crawling.
	Fetcher Fetcher
	// Concepts provides the concept conditions; defaults to the
	// built-in base.
	Concepts *concepts.Base
	// MaxDocuments bounds crawling (default 64).
	MaxDocuments int
	// MaxInstances bounds the pattern instance base (default 100000),
	// guarding against runaway recursive wrapping.
	MaxInstances int
	// MaxConcurrency bounds how many documents the crawl frontier
	// fetches and parses in parallel, and how many rule-application
	// jobs run concurrently within a stratum (default GOMAXPROCS).
	// Candidate generation for provably independent rules overlaps;
	// instances are committed sequentially in rule order, so the
	// resulting base is bit-identical to a fully serial evaluation at
	// any concurrency level.
	MaxConcurrency int
	// Shared, when set, is the match memo compiled evaluation consults
	// and feeds instead of the program's own (see MatchCache): compiled
	// pattern matches are then reused across every program whose
	// evaluator shares the cache, keyed by path signature and document
	// fingerprint. Output is unchanged — only the matching work is
	// shared.
	Shared *MatchCache
	// Incremental enables subtree-fingerprint match reuse: on a match
	// miss (a changed document), context roots whose subtree content was
	// seen before — in a previous version of the page, or in another
	// wrapper's run via Shared — resolve their candidate sets from the
	// content-addressed subtree cache, and only the dirty regions run
	// the bitset matcher. The instance base is bit-identical to a full
	// evaluation; only the matching work shrinks to the changed regions.
	// Documents whose NodeIDs are not in document order (dom.DocOrdered)
	// fall back to full matching automatically.
	Incremental bool
}

// NewEvaluator returns an evaluator with the built-in concept base.
func NewEvaluator(f Fetcher) *Evaluator {
	return &Evaluator{Fetcher: f, Concepts: concepts.NewBase(), MaxDocuments: 64, MaxInstances: 100000}
}

// Run evaluates the program: document(url, S) entry rules fetch their
// pages through the Fetcher, patterns are computed to fixpoint
// (supporting recursive wrapping and crawling), and the resulting
// pattern instance base is returned, sealed (pib.Base.Seal). Documents
// are fetched through a concurrent crawl frontier (see MaxConcurrency),
// but the instance base is built in the same deterministic order as a
// serial crawl.
//
// A single Elog program "can be used for continuous wrapping of changing
// pages or to wrap several HTML pages of similar structure"
// (Section 3.1) — Run is stateless; call it again to re-wrap.
func (ev *Evaluator) Run(p *Program) (*pib.Base, error) { return ev.run(p, nil, nil, false) }

// RunCompiled evaluates a compiled program: pattern matching runs on
// the bitset kernel and is memoized per document fingerprint, so
// re-wrapping unchanged pages skips the tree walks entirely. The
// instance base is identical to Run's on the same inputs.
func (ev *Evaluator) RunCompiled(cp *CompiledProgram) (*pib.Base, error) {
	return ev.run(cp.Program, cp, nil, false)
}

// RunMaintained is RunCompiled maintaining the base from prev, a base an
// earlier RunCompiled or RunMaintained of the same program under the
// same concept base returned, over earlier versions of the documents
// (the view maintenance of Gupta, Mumick & Subrahmanian, restricted to
// dirty regions). A parent-local rule (see nonLocal) re-derives only
// under parents with no counterpart in prev (pib.Base.Counterpart), the
// dirty regions; under every other parent it grafts the children the
// counterpart has from the same rule, its node ids shifted, skipping
// match and filter. Commits keep (rule, parent) order, so the base is
// identical to RunCompiled's, Dump and all. prev is only read: any
// number of evaluations may maintain from it at once.
//
// Every page the run fetches is built from prev's tree of its URL
// (dom.Tree.WarmFrom), so a changed page re-parses only the bytes that
// changed. A page the fetcher returns unbuilt is adopted first
// (dom.Adopt): the base's document is a private tree that the caller
// owns and may Recycle once nothing reads the base, while the fetcher's
// tree stays unbuilt and untouched. Entry rules run on the freshly
// fetched documents. Everything else takes RunCompiled's path: the other rules that are not parent-local,
// parents in documents whose ids are not in document order, and every
// rule when prev was built under another program or concept base. An
// evaluation handed a prev that took that path anywhere counts as a
// fallback (IncrementalStats.EvalFallbacks). A nil prev is RunCompiled.
func (ev *Evaluator) RunMaintained(cp *CompiledProgram, prev *pib.Base) (*pib.Base, error) {
	return ev.run(cp.Program, cp, prev, true)
}

// origin is what a compiled evaluation records as its base's Origin.
type origin struct {
	cp       *CompiledProgram
	concepts *concepts.Base
}

// runner is the state of one evaluation: the instance base under
// construction, the crawl bookkeeping, and the optional compiled form.
type runner struct {
	ev   *Evaluator
	cp   *CompiledProgram // nil for interpreted execution
	base *pib.Base
	fr   *frontier
	docs map[string]*pib.Instance // fetched documents by URL
	// announced marks parent instances whose crawl URL was already
	// handed to the frontier, so fixpoint re-iterations do not re-walk
	// their text content.
	announced map[*pib.Instance]bool
	// jobs is runWave's scratch job list, reused across waves and
	// fixpoint passes of this evaluation.
	jobs []waveJob
	// maintained is set when base is maintained from a previous base;
	// fellBack when some of it was not, and grafted counts the copies.
	maintained, fellBack bool
	grafted              int
	// done counts, by rule number, the parents a parent-local rule was
	// applied to, when set: applying it again to one derives nothing new
	// (and must not graft twice).
	done []int
	kids []*pib.Instance // graft's scratch
	// plans are the graftPlans of the wave runWave is at, their derive
	// lists cut from the slab derive; both are reused across waves.
	plans  []*graftPlan
	derive []int32
}

// waveJob is one rule's candidate-generation unit of a wave: accepted[j]
// holds the candidates of the j-th parent that derives — parents[j]
// when plan is nil, parents[plan.derive[j]] otherwise. When generation
// fails, accepted covers exactly the deriving parents before the
// failing one.
type waveJob struct {
	rule     *Rule
	parents  []*pib.Instance
	accepted [][]candidate
	err      error
	plan     *graftPlan
}

// graftPlan splits a maintained wave's parents of one pattern: derive
// lists, ascending, the indices of those that generate candidates; the
// others graft from their counterpart, which the base remembers
// (pib.Base.Counterpart). The rules of a wave that share a parent
// pattern share its plan.
type graftPlan struct {
	pattern string
	start   int // where parents begin among the pattern's instances
	derive  []int32
}

func (ev *Evaluator) run(p *Program, cp *CompiledProgram, prev *pib.Base, own bool) (*pib.Base, error) {
	r := &runner{ev: ev, cp: cp, docs: map[string]*pib.Instance{}, announced: map[*pib.Instance]bool{}}
	switch {
	case cp == nil:
		r.base = pib.NewBase()
	case prev != nil && prev.Origin == any(origin{cp, ev.Concepts}):
		r.base, r.maintained = pib.NewBaseFrom(prev, int(cp.fresh.Load())), true
	default:
		r.base, r.fellBack = pib.NewBaseSize(int(cp.instances.Load())), prev != nil
	}
	if cp != nil {
		r.done = make([]int, len(p.Rules)+1)
	}
	r.fr = newFrontier(ev.Fetcher, ev.MaxConcurrency, ev.max(ev.MaxDocuments, 64), cp != nil, prev, own)
	defer r.fr.drain()

	// Elog supports stratified negation (Section 3.3): rules with
	// negated pattern references must see the referenced pattern fully
	// computed. Group the rules into strata, then run each stratum's
	// rules to fixpoint (rules within a stratum may feed each other —
	// pattern references, recursive wrapping).
	var st [][]*Rule
	if cp != nil {
		st = cp.strata
	} else {
		var err error
		st, err = Stratify(p)
		if err != nil {
			return r.base, err
		}
	}

	// Seed the frontier with every entry page: they are all fetched
	// eventually, so announcing them up front overlaps their fetch and
	// parse latencies.
	for _, rule := range p.Rules {
		if rule.DocURL != "" {
			r.fr.prefetch(rule.DocURL)
		}
	}

	for i, rules := range st {
		var waves []wave
		if cp != nil {
			waves = cp.waves[i]
		} else {
			waves = planWaves(rules)
		}
		if err := r.runStratum(waves); err != nil {
			return r.base, err
		}
	}
	if cp != nil {
		cp.instances.Store(int64(r.base.Count()))
		cp.fresh.Store(int64(r.base.Count() - r.grafted))
		cp.grafted.Add(uint64(r.grafted))
		if r.fellBack {
			cp.fallbacks.Add(1)
		}
		r.base.Origin = origin{cp, ev.Concepts}
	}
	r.base.Seal()
	return r.base, nil
}

// wave is a run of consecutive stratum rules whose candidate-generation
// phases are mutually independent: no member reads (via its parent
// pattern or a pattern reference) a pattern any member writes.
// Sequential waves are singletons that must interleave generation and
// commit exactly like the serial evaluator: document/crawl rules (they
// mutate the crawl bookkeeping) and self-recursive rules (a later
// parent's generation may read an earlier parent's commits).
type wave struct {
	rules      []*Rule
	sequential bool
	// reads lists, for a non-sequential wave, the patterns its rules'
	// candidate generation consults (ruleReads of every member).
	reads []string
}

// ruleReads returns the patterns whose instance sets candidate
// generation for the rule consults: the parent pattern and every
// pattern reference (negated references point to lower strata and so
// can never conflict within one, but listing them is harmless).
func ruleReads(rule *Rule) []string {
	var out []string
	if rule.DocURL == "" {
		out = append(out, rule.Parent)
	}
	for _, c := range rule.Conds {
		if ref, ok := c.(PatternRefCond); ok {
			out = append(out, ref.Pattern)
		}
	}
	return out
}

// ruleSequential reports whether the rule must run on the interleaved
// serial path: entry rules and getDocument rules drive the crawl
// frontier and mutate the document table, and a rule that reads its own
// head must see each parent's commits before the next parent's
// generation, exactly as the serial evaluator does.
func ruleSequential(rule *Rule) bool {
	if rule.DocURL != "" {
		return true
	}
	if rule.Extract != nil && rule.Extract.Kind == GetDocument {
		return true
	}
	for _, p := range ruleReads(rule) {
		if p == rule.Head {
			return true
		}
	}
	return false
}

// planWaves greedily partitions a stratum's rule list, preserving rule
// order, into waves safe for concurrent candidate generation. A rule
// opens a new wave when it reads a pattern some earlier member of the
// current wave writes (it must observe those commits first) or when it
// needs the serial path.
func planWaves(rules []*Rule) []wave {
	var out []wave
	var cur []*Rule
	var reads []string
	heads := map[string]bool{}
	flush := func() {
		if len(cur) > 0 {
			out = append(out, wave{rules: cur, reads: reads})
			cur, reads = nil, nil
			heads = map[string]bool{}
		}
	}
	for _, rule := range rules {
		if ruleSequential(rule) {
			flush()
			out = append(out, wave{rules: []*Rule{rule}, sequential: true})
			continue
		}
		rr := ruleReads(rule)
		for _, p := range rr {
			if heads[p] {
				flush()
				break
			}
		}
		cur = append(cur, rule)
		reads = append(reads, rr...)
		heads[rule.Head] = true
	}
	flush()
	return out
}

// runStratum evaluates one stratum's rules to fixpoint. The rule list
// is planned into waves once (at Compile for compiled programs); each
// fixpoint pass walks the waves in rule order, so at MaxConcurrency 1 —
// or whenever every wave is a singleton — the evaluation order is
// exactly the serial one.
//
// The fixpoint is semi-naive at wave granularity: what a non-sequential
// wave generates is a function of the instance sets it reads, and those
// only grow, so a wave whose read sets are the size they were when it
// last ran could only commit duplicates and is skipped. Sequential
// waves run on every pass: they fetch, and a later pass is what retries
// a fetch that failed.
func (r *runner) runStratum(waves []wave) error {
	conc := r.ev.MaxConcurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	seen := make([]int, len(waves)) // read-set size at each wave's last run, +1
	for {
		changed := false
		for i, w := range waves {
			if !w.sequential {
				size := 1
				for _, p := range w.reads {
					size += len(r.base.Instances(p))
				}
				if size == seen[i] {
					continue
				}
				seen[i] = size
			}
			wc, err := r.runWave(w, conc)
			if wc {
				changed = true
			}
			if err != nil {
				return err
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// runWave evaluates one wave. The unit of work is the rule, applied to
// the whole set of its parent instances at once (ruleCandidates): the
// rules of a wave generate concurrently, then instances are committed on
// the evaluation goroutine in (rule, parent) order. Because no rule's
// generation reads a pattern the wave writes, every rule sees the base
// it would have seen serially, and the ordered commit assigns the same
// instance ids — the base is bit-identical at any concurrency level.
func (r *runner) runWave(w wave, conc int) (bool, error) {
	if w.sequential {
		return r.runSerial(w.rules[0])
	}
	jobs := r.jobs[:0]
	r.plans, r.derive = r.plans[:0], r.derive[:0]
	for _, rule := range w.rules {
		parents := r.base.Instances(rule.Parent)
		jb := waveJob{rule: rule}
		if info := r.info(rule); info.local && r.done != nil {
			start := r.done[info.no]
			parents = parents[start:]
			r.done[info.no] += len(parents)
			if r.maintained {
				jb.plan = r.counterparts(rule.Parent, start, parents)
			}
		} else if len(parents) > 0 && r.maintained {
			r.fellBack = true
		}
		if jb.parents = parents; len(parents) > 0 {
			jobs = append(jobs, jb)
		}
	}
	r.jobs = jobs
	if conc = min(conc, len(jobs)); conc > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(jobs) {
						return
					}
					jb := &jobs[j]
					jb.accepted, jb.err = r.ruleCandidates(jb.rule, jb.parents, jb.plan)
				}
			}()
		}
		wg.Wait()
	} else {
		for j := range jobs {
			jb := &jobs[j]
			jb.accepted, jb.err = r.ruleCandidates(jb.rule, jb.parents, jb.plan)
		}
	}
	changed := false
	for j := range jobs {
		jb := &jobs[j]
		no := r.info(jb.rule).no
		d := 0 // jb.accepted's next entry
		for i, s := range jb.parents {
			var added bool
			if p := jb.plan; p != nil && (d == len(p.derive) || int(p.derive[d]) != i) {
				added = r.graft(no, s, r.base.Counterpart(s))
			} else if d < len(jb.accepted) {
				added = r.commit(jb.rule, no, s, jb.accepted[d])
				d++
			} else {
				break // generation failed at s
			}
			if added {
				changed = true
			}
			if r.base.Count() > r.ev.max(r.ev.MaxInstances, 100000) {
				return changed, fmt.Errorf("elog: instance limit exceeded (recursive wrapper runaway?)")
			}
		}
		if jb.err != nil {
			// Generation has no side effects, so dropping the later
			// parents' and rules' candidates leaves the base committed
			// up to the failing parent, exactly as one-parent-at-a-time
			// evaluation would.
			return changed, jb.err
		}
	}
	return changed, nil
}

// info returns the rule's number and locality (zero when interpreted).
func (r *runner) info(rule *Rule) ruleInfo {
	if r.cp == nil {
		return ruleInfo{}
	}
	return r.cp.rules[rule]
}

// counterparts pairs a parent-local rule's parents, parents from start
// on among pattern's instances, with the previous base and returns the
// graftPlan of a waveJob: nil when none pairs. A parent pairs for
// grafting only where both documents are in document order. A rule
// whose parents another rule of the wave has planned for shares that
// plan, so the parents are paired once.
func (r *runner) counterparts(pattern string, start int, parents []*pib.Instance) *graftPlan {
	for _, p := range r.plans {
		if p.pattern == pattern && p.start == start {
			if len(p.derive) == len(parents) {
				return nil // none grafts
			}
			return p
		}
	}
	if r.derive == nil {
		r.derive = make([]int32, 0, 64)
	}
	from := len(r.derive)
	for i, s := range parents {
		c := r.base.Counterpart(s)
		if c != nil && (!s.Doc.DocOrdered() || !c.Doc.DocOrdered()) {
			r.fellBack = true
			c = nil
		}
		if c == nil {
			r.derive = append(r.derive, int32(i))
		}
	}
	p := &graftPlan{pattern: pattern, start: start, derive: r.derive[from:len(r.derive):len(r.derive)]}
	r.plans = append(r.plans, p)
	if len(p.derive) == len(parents) {
		return nil
	}
	return p
}

// graft commits, under parent s, copies of the children that rule no
// derived under s's counterpart c, in the order it committed them.
func (r *runner) graft(no uint16, s, c *pib.Instance) bool {
	kids := r.kids[:0]
	for _, k := range c.Children {
		if k.Rule == no {
			kids = append(kids, k)
		}
	}
	slices.SortFunc(kids, func(a, b *pib.Instance) int { return cmp.Compare(a.ID, b.ID) })
	for _, k := range kids {
		r.base.Graft(s, k)
	}
	r.kids, r.grafted = kids, r.grafted+len(kids)
	return len(kids) > 0
}

// runSerial is the seed evaluator's interleaved loop for the rules that
// need it (ruleSequential): one parent at a time, committing before the
// next parent's generation.
func (r *runner) runSerial(rule *Rule) (bool, error) {
	changed := false
	var parents []*pib.Instance
	if rule.DocURL != "" {
		in, err := r.fetchDoc(rule.DocURL)
		if err != nil {
			return changed, fmt.Errorf("elog: rule for %s: %w", rule.Head, err)
		}
		parents = []*pib.Instance{in}
	} else {
		parents = r.base.Instances(rule.Parent)
		r.fellBack = r.fellBack || r.maintained && len(parents) > 0
	}
	if rule.Extract != nil && rule.Extract.Kind == GetDocument {
		// Open the crawl frontier: every URL this rule is
		// about to request is known before the first fetch,
		// so the pages download in parallel while rule
		// application consumes them sequentially in stable
		// order. Each parent is announced once; fixpoint
		// re-iterations skip the text walk.
		for _, s := range parents {
			if r.announced[s] {
				continue
			}
			r.announced[s] = true
			if url, ok := crawlURL(s); ok {
				r.fr.prefetch(url)
			}
		}
	}
	no := r.info(rule).no
	for _, s := range parents {
		accepted, err := r.parentCandidates(rule, s)
		if err != nil {
			return changed, err
		}
		if r.commit(rule, no, s, accepted) {
			changed = true
		}
		if r.base.Count() > r.ev.max(r.ev.MaxInstances, 100000) {
			return changed, fmt.Errorf("elog: instance limit exceeded (recursive wrapper runaway?)")
		}
	}
	return changed, nil
}

// fetchDoc returns the document instance for url, consuming the crawl
// frontier. It runs on the evaluation goroutine only, so instance ids
// and the crawl limit are accounted in deterministic request order.
func (r *runner) fetchDoc(url string) (*pib.Instance, error) {
	if in, ok := r.docs[url]; ok {
		return in, nil
	}
	if len(r.docs) >= r.ev.max(r.ev.MaxDocuments, 64) {
		return nil, fmt.Errorf("%w of %d documents exceeded", errCrawlLimit, r.ev.max(r.ev.MaxDocuments, 64))
	}
	t, err := r.fr.get(url)
	if err != nil {
		return nil, err
	}
	in := &pib.Instance{Pattern: "document", Kind: pib.DocumentInstance,
		Doc: t, URL: url, Nodes: []dom.NodeID{t.Root()}}
	in, _ = r.base.Add(in)
	r.docs[url] = in
	return in, nil
}

// match dispatches an extraction-path match to the compiled bitset
// matcher when a compiled form is present, else to the interpreter.
func (r *runner) match(e *EPD, t *dom.Tree, roots []dom.NodeID, asChildren bool) []epdMatch {
	if r.cp != nil {
		if ce := r.cp.epds[e]; ce != nil {
			return ce.match(r, t, roots, asChildren, false)
		}
	}
	return e.Match(t, roots, asChildren)
}

// matchDeep is match with the implicit leading descent of context and
// internal conditions.
func (r *runner) matchDeep(e *EPD, t *dom.Tree, roots []dom.NodeID, asChildren bool) []epdMatch {
	if r.cp != nil {
		if ce := r.cp.epds[e]; ce != nil {
			return ce.match(r, t, roots, asChildren, true)
		}
	}
	return e.MatchDeep(t, roots, asChildren)
}

// Stratify partitions the program's rules into strata such that negated
// pattern references only point to strictly lower strata; positive
// dependencies (parents, positive references) stay within or below. It
// returns an error for programs with negation cycles, which have no
// stratified semantics.
//
// The stratum numbers come from the shared solver in internal/strata
// (also used by the generic datalog engine): a rule's head depends
// positively on its parent pattern and on each positive pattern
// reference, and negatively on each negated pattern reference.
func Stratify(p *Program) ([][]*Rule, error) {
	deps := make([]strata.Rule, 0, len(p.Rules))
	for _, r := range p.Rules {
		sr := strata.Rule{Head: r.Head}
		if r.DocURL == "" {
			sr.Deps = append(sr.Deps, strata.Dep{Pred: r.Parent})
		}
		for _, c := range r.Conds {
			if ref, ok := c.(PatternRefCond); ok {
				sr.Deps = append(sr.Deps, strata.Dep{Pred: ref.Pattern, Negated: ref.Negated})
			}
		}
		deps = append(deps, sr)
	}
	stratum, err := strata.Solve(deps)
	if err != nil {
		return nil, fmt.Errorf("elog: program is not stratifiable (cycle through a negated pattern reference)")
	}
	out := make([][]*Rule, strata.Height(stratum))
	for _, r := range p.Rules {
		out[stratum[r.Head]] = append(out[stratum[r.Head]], r)
	}
	return out, nil
}

func (ev *Evaluator) max(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// binding maps Elog variables to values: "S", "X" plus regvar and
// condition-bound variables. Rules bind a handful of variables, so the
// entries live in small slices scanned linearly — in the per-candidate
// hot path this beats allocating two maps per candidate and two more
// per backtracking branch by a wide margin (the E18 allocs/op budget).
type binding struct {
	// node-valued variables.
	nodes []nodeBind
	// string-valued variables.
	strs []strBind
}

type nodeBind struct {
	name string
	node dom.NodeID
}

type strBind struct {
	name, val string
}

// branch returns a child binding sharing this one's entries. The
// capacity caps force any append in the child to reallocate, so sibling
// backtracking branches never observe each other's bindings.
func (b *binding) branch() binding {
	return binding{
		nodes: b.nodes[:len(b.nodes):len(b.nodes)],
		strs:  b.strs[:len(b.strs):len(b.strs)],
	}
}

// setNode binds name to a node, replacing an existing binding
// copy-on-write (the backing array may be shared with other branches).
func (b *binding) setNode(name string, n dom.NodeID) {
	for i := range b.nodes {
		if b.nodes[i].name == name {
			nodes := make([]nodeBind, len(b.nodes))
			copy(nodes, b.nodes)
			nodes[i].node = n
			b.nodes = nodes
			return
		}
	}
	b.nodes = append(b.nodes, nodeBind{name, n})
}

// setStr binds name to a string, replacing copy-on-write like setNode.
func (b *binding) setStr(name, val string) {
	for i := range b.strs {
		if b.strs[i].name == name {
			strs := make([]strBind, len(b.strs))
			copy(strs, b.strs)
			strs[i].val = val
			b.strs = strs
			return
		}
	}
	b.strs = append(b.strs, strBind{name, val})
}

func (b *binding) node(name string) (dom.NodeID, bool) {
	for i := range b.nodes {
		if b.nodes[i].name == name {
			return b.nodes[i].node, true
		}
	}
	return dom.Nil, false
}

func (b *binding) str(name string) (string, bool) {
	for i := range b.strs {
		if b.strs[i].name == name {
			return b.strs[i].val, true
		}
	}
	return "", false
}

// candidate is a prospective instance produced by the extraction atom.
type candidate struct {
	nodes []dom.NodeID
	text  string
	// src is the instance whose document (Doc, URL) the candidate lies
	// in: the parent, or the fetched document's own for getDocument.
	src   *pib.Instance
	binds map[string]string
	kind  pib.Kind
}

// ruleCandidates is the generation phase of one rule over the whole set
// of its parents; out[j] holds the accepted candidates of the j-th
// parent that derives (see waveJob): every parent when plan is nil,
// else those plan.derive lists, the others grafting at commit. A
// compiled subelem rule is applied set-at-a-time: each run of deriving
// parents splitRun accepts costs one match over all of its roots
// (extractRun). Everything else — other extraction kinds,
// specialization, the interpreter, and parents splitRun refuses — goes
// one parent at a time through extract. Generation only reads
// evaluation state (the instance base, the concept base, warmed
// document trees, the match memo), never writes it, so the rules of a
// wave run concurrently — runWave relies on this. Crawl-driving rules
// are the exception and never reach here: ruleSequential pins them to
// runSerial because their extraction fetches documents.
func (r *runner) ruleCandidates(rule *Rule, parents []*pib.Instance, plan *graftPlan) ([][]candidate, error) {
	var ce *compiledEPD
	if r.cp != nil && !rule.Specialize && rule.Extract.Kind == Subelem {
		ce = r.cp.epds[rule.Extract.EPD]
	}
	n := len(parents)
	if plan != nil {
		n = len(plan.derive)
	}
	out := make([][]candidate, n)
	for j := 0; j < n; {
		// run is the deriving parents j.. that are consecutive parents,
		// out[j:end] their entries.
		end, run := n, parents
		if plan != nil {
			for end = j + 1; end < n && plan.derive[end] == plan.derive[end-1]+1; end++ {
			}
			run = parents[plan.derive[j] : int(plan.derive[j])+end-j]
		}
		o := out[j:end]
		for lo := 0; lo < len(run); {
			hi := lo + 1
			if ce != nil {
				hi = lo + splitRun(run[lo:])
			}
			if hi-lo > 1 {
				r.extractRun(ce, run[lo:hi], o[lo:hi])
			} else {
				cands, err := r.extract(rule, run[lo])
				if err != nil {
					return out[:j+lo], err
				}
				o[lo] = cands
			}
			for ; lo < hi; lo++ {
				accepted, err := r.filter(rule, run[lo], o[lo])
				if err != nil {
					return out[:j+lo], err
				}
				o[lo] = accepted
			}
		}
		j = end
	}
	return out, nil
}

// splitRun returns how many leading parents can share one match call
// whose result splits back to them by id range: single-node instances
// of one document-ordered tree whose subtrees ascend without overlap
// (so no nested or repeated roots). 1 means parents[0] goes alone.
func splitRun(parents []*pib.Instance) int {
	t := parents[0].Doc
	n, end := 0, 0
	for _, p := range parents {
		if p.Doc != t || len(p.Nodes) != 1 || p.Kind == pib.SequenceInstance || int(p.Nodes[0]) < end {
			break
		}
		n, end = n+1, int(p.Nodes[0])+t.SubtreeSize(p.Nodes[0])
	}
	if n < 2 || !t.DocOrdered() {
		return 1
	}
	return n
}

// extractRun is extract for a run of subelem parents accepted by
// splitRun: one match over all of their roots, whose document-ordered
// result falls to parent i as the ids in [root, root+SubtreeSize). The
// candidates and their one-node slices are cut from two slabs.
func (r *runner) extractRun(ce *compiledEPD, run []*pib.Instance, out [][]candidate) {
	t := run[0].Doc
	roots := make([]dom.NodeID, len(run))
	for i, s := range run {
		roots[i] = s.Nodes[0]
	}
	ms := ce.match(r, t, roots, false, false)
	cands := make([]candidate, len(ms))
	nodes := make([]dom.NodeID, len(ms))
	j := 0
	for i, s := range run {
		lo, end := j, roots[i]+dom.NodeID(t.SubtreeSize(roots[i]))
		for ; j < len(ms) && ms[j].node < end; j++ {
			nodes[j] = ms[j].node
			cands[j] = candidate{kind: pib.NodeInstance, nodes: nodes[j : j+1 : j+1], src: s, binds: ms[j].binds}
		}
		out[i] = cands[lo:j:j]
	}
}

// parentCandidates is the generation phase for a single parent.
func (r *runner) parentCandidates(rule *Rule, s *pib.Instance) ([]candidate, error) {
	cands, err := r.extract(rule, s)
	if err != nil {
		return nil, err
	}
	return r.filter(rule, s, cands)
}

// filter keeps, in place, the candidates of parent s that satisfy the
// rule's conditions, then applies the subsq/firstsubtree post-filters.
func (r *runner) filter(rule *Rule, s *pib.Instance, cands []candidate) ([]candidate, error) {
	subsq := rule.Extract != nil && rule.Extract.Kind == Subsq
	if len(rule.Conds) == 0 && !subsq {
		return cands, nil // nothing to bind variables for
	}
	accepted := cands[:0]
	for _, c := range cands {
		var b binding
		b.nodes = make([]nodeBind, 0, 2)
		if len(c.nodes) > 0 {
			b.nodes = append(b.nodes, nodeBind{"X", c.nodes[0]})
		}
		if len(s.Nodes) > 0 {
			b.nodes = append(b.nodes, nodeBind{"S", s.Nodes[0]})
		}
		for k, v := range c.binds {
			b.setStr(k, v)
		}
		ok, err := r.conditions(rule, s, c, b, 0)
		if err != nil {
			return nil, err
		}
		if ok {
			accepted = append(accepted, c)
		}
	}
	if subsq {
		accepted = maximalOnly(accepted)
	}
	for _, c := range rule.Conds {
		if _, ok := c.(FirstCond); ok {
			accepted = firstOnly(accepted)
			break
		}
	}
	return accepted, nil
}

// commit adds the accepted candidates of one (rule, parent) pair to the
// instance base. It runs on the evaluation goroutine only, in (rule,
// parent) order, so instance ids and dedup decisions are deterministic.
func (r *runner) commit(rule *Rule, no uint16, s *pib.Instance, accepted []candidate) bool {
	changed := false
	for _, c := range accepted {
		in := pib.Instance{
			Pattern: rule.Head, Kind: c.kind, Doc: c.src.Doc, URL: c.src.URL,
			Nodes: c.nodes, Text: c.text, Parent: s, Rule: no,
		}
		if _, added := r.base.AddCopy(&in); added {
			changed = true
		}
	}
	return changed
}

// firstOnly keeps the candidate earliest in document order — the
// firstsubtree internal condition.
func firstOnly(cands []candidate) []candidate {
	best := -1
	bestPre := 1 << 30
	for i, c := range cands {
		if len(c.nodes) == 0 {
			continue
		}
		if p := c.src.Doc.Pre(c.nodes[0]); p < bestPre {
			best, bestPre = i, p
		}
	}
	if best < 0 {
		if len(cands) > 0 {
			return cands[:1]
		}
		return nil
	}
	return cands[best : best+1]
}

// maximalOnly keeps, among accepted subsq candidates, only those whose
// node range is not strictly contained in another accepted candidate's
// range ("the largest sequence").
func maximalOnly(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		contained := false
		for j, d := range cands {
			if i == j || len(c.nodes) == 0 || len(d.nodes) == 0 {
				continue
			}
			if d.nodes[0] <= c.nodes[0] && c.nodes[len(c.nodes)-1] <= d.nodes[len(d.nodes)-1] &&
				len(d.nodes) > len(c.nodes) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, c)
		}
	}
	return out
}

// extract produces the candidate instances of a rule for parent s.
func (r *runner) extract(rule *Rule, s *pib.Instance) ([]candidate, error) {
	if rule.Specialize {
		// The candidate is the parent instance itself.
		return []candidate{{kind: s.Kind, nodes: s.Nodes, text: s.Text, src: s}}, nil
	}
	e := rule.Extract
	switch e.Kind {
	case Subelem:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, m := range r.match(e.EPD, s.Doc, s.Nodes, s.Kind == pib.SequenceInstance) {
			out = append(out, candidate{kind: pib.NodeInstance, nodes: []dom.NodeID{m.node}, src: s, binds: m.binds})
		}
		return out, nil
	case Subsq:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, fm := range r.match(e.From, s.Doc, s.Nodes, s.Kind == pib.SequenceInstance) {
			seqs := candidateSequences(s.Doc, fm.node, e.Start, e.End)
			for _, seq := range seqs {
				out = append(out, candidate{kind: pib.SequenceInstance, nodes: seq, src: s, binds: fm.binds})
			}
		}
		return out, nil
	case Subtext:
		text := s.TextContent()
		var out []candidate
		for _, m := range e.SPD.Match(text) {
			out = append(out, candidate{kind: pib.StringInstance, text: m.text, src: s, binds: m.binds})
		}
		return out, nil
	case Subatt:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, n := range s.Nodes {
			if v, ok := s.Doc.Attr(n, e.Attr); ok {
				out = append(out, candidate{kind: pib.StringInstance, text: v, src: s})
			}
		}
		return out, nil
	case GetDocument:
		url, ok := crawlURL(s)
		if !ok {
			return nil, nil
		}
		in, err := r.fetchDoc(url)
		if err != nil {
			// A cancelled context must abort the whole evaluation, not
			// degrade every remaining crawl step into a "dangling link".
			if errors.Is(err, errCrawlLimit) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// A dangling link is not a wrapper failure; crawling skips it.
			return nil, nil
		}
		return []candidate{{kind: pib.NodeInstance, nodes: in.Nodes, src: in}}, nil
	}
	return nil, fmt.Errorf("elog: unknown extraction kind")
}

// crawlURL derives the document URL a getDocument extraction for
// parent s requests: the instance's text resolved against its source
// document. The frontier announce loop and the consuming extraction
// share it, so prefetched keys always match what is consumed.
func crawlURL(s *pib.Instance) (string, bool) {
	url := strings.TrimSpace(s.TextContent())
	if url == "" {
		return "", false
	}
	return resolveURL(s.URL, url), true
}

// resolveURL resolves a possibly relative URL against the base document
// URL (string prefix resolution; the simulated web uses path-style
// URLs).
func resolveURL(base, ref string) string {
	if strings.Contains(ref, "://") || base == "" {
		return ref
	}
	if strings.HasPrefix(ref, "/") {
		// Keep scheme+host of base.
		if i := strings.Index(base, "://"); i >= 0 {
			if j := strings.IndexByte(base[i+3:], '/'); j >= 0 {
				return base[:i+3+j] + ref
			}
			return base + ref
		}
		return ref
	}
	// Relative: replace last path component.
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		return base[:i+1] + ref
	}
	return ref
}

// candidateSequences enumerates the runs of consecutive children of
// parent that start at a child self-matching start and end at a child
// self-matching end. All candidate ranges are produced; the rule's
// conditions select among them, and applyRule keeps only the largest
// surviving ones (Figure 5: "the (largest) sequence ... such that the
// first node immediately follows the list header and the final node is
// immediately followed by an hr").
func candidateSequences(t *dom.Tree, parent dom.NodeID, start, end *EPD) [][]dom.NodeID {
	children := t.Children(parent)
	var starts, ends []int
	for i, c := range children {
		if start.SelfMatch(t, c) {
			starts = append(starts, i)
		}
		if end.SelfMatch(t, c) {
			ends = append(ends, i)
		}
	}
	var out [][]dom.NodeID
	for _, i := range starts {
		for _, j := range ends {
			if j < i {
				continue
			}
			out = append(out, append([]dom.NodeID(nil), children[i:j+1]...))
		}
	}
	return out
}

// conditions evaluates rule.Conds[i:] under binding b with backtracking
// over the choices introduced by before/after/contains. Bindings pass
// by value; branches extend them copy-on-write (see binding.branch).
func (r *runner) conditions(rule *Rule, s *pib.Instance, c candidate, b binding, i int) (bool, error) {
	if i == len(rule.Conds) {
		return true, nil
	}
	cond := rule.Conds[i]
	switch cc := cond.(type) {
	case BeforeCond:
		// In a specialization rule head(S, X) <- parent(S, X), the rule
		// variable S denotes the parent instance's own parent — context
		// conditions scope there, not at the instance being specialized.
		scope := s
		if rule.Specialize && s.Parent != nil {
			scope = s.Parent
		}
		matches := r.contextMatches(scope, c, cc)
		if cc.Negated {
			if len(matches) > 0 {
				return false, nil
			}
			return r.conditions(rule, s, c, b, i+1)
		}
		for _, m := range matches {
			nb := b.branch()
			if cc.Var != "" {
				nb.setNode(cc.Var, m.node)
				nb.setStr(cc.Var, strings.TrimSpace(c.src.Doc.ElementText(m.node)))
			}
			if cc.DistVar != "" {
				nb.setStr(cc.DistVar, fmt.Sprintf("%d", m.dist))
			}
			for k, v := range m.binds {
				nb.setStr(k, v)
			}
			ok, err := r.conditions(rule, s, c, nb, i+1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case ContainsCond:
		if len(c.nodes) == 0 {
			if cc.Negated {
				return r.conditions(rule, s, c, b, i+1)
			}
			return false, nil
		}
		ms := r.matchDeep(cc.EPD, c.src.Doc, c.nodes, c.kind == pib.SequenceInstance)
		if cc.Negated {
			if len(ms) > 0 {
				return false, nil
			}
			return r.conditions(rule, s, c, b, i+1)
		}
		for _, m := range ms {
			nb := b.branch()
			if cc.Var != "" {
				nb.setNode(cc.Var, m.node)
				nb.setStr(cc.Var, strings.TrimSpace(c.src.Doc.ElementText(m.node)))
			}
			for k, v := range m.binds {
				nb.setStr(k, v)
			}
			ok, err := r.conditions(rule, s, c, nb, i+1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case ConceptCond:
		val, ok := r.varText(&b, c, cc.Var)
		if !ok {
			return false, fmt.Errorf("elog: rule for %s: concept %s on unbound variable %s", rule.Head, cc.Concept, cc.Var)
		}
		holds := r.ev.Concepts.Holds(cc.Concept, val)
		if holds == cc.Negated {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	case CompareCond:
		l, ok1 := r.operandText(&b, c, cc.L)
		rv, ok2 := r.operandText(&b, c, cc.R)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("elog: rule for %s: comparison on unbound variable", rule.Head)
		}
		holds, err := concepts.Compare(cc.Op, l, rv)
		if err != nil {
			return false, err
		}
		if !holds {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	case FirstCond:
		// Handled as a post-filter in applyRule; as an in-place
		// condition it is vacuously true.
		return r.conditions(rule, s, c, b, i+1)
	case PatternRefCond:
		n, ok := b.node(cc.Var)
		if !ok {
			return false, fmt.Errorf("elog: rule for %s: pattern reference %s(_, %s) on unbound variable", rule.Head, cc.Pattern, cc.Var)
		}
		found := false
		for _, in := range r.base.Instances(cc.Pattern) {
			if in.Doc == c.src.Doc && len(in.Nodes) == 1 && in.Nodes[0] == n {
				found = true
				break
			}
		}
		if found == cc.Negated {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	}
	return false, fmt.Errorf("elog: unknown condition %T", cond)
}

// varText resolves a variable to text: string binding first, then the
// element text of a node binding, then the candidate itself for "X".
func (r *runner) varText(b *binding, c candidate, v string) (string, bool) {
	if s, ok := b.str(v); ok && s != "" {
		return s, true
	}
	if n, ok := b.node(v); ok {
		return strings.TrimSpace(c.src.Doc.ElementText(n)), true
	}
	if v == "X" {
		if c.kind == pib.StringInstance {
			return c.text, true
		}
		var sb strings.Builder
		for _, n := range c.nodes {
			sb.WriteString(c.src.Doc.ElementText(n))
		}
		return strings.TrimSpace(sb.String()), true
	}
	if s, ok := b.str(v); ok {
		return s, true
	}
	return "", false
}

func (r *runner) operandText(b *binding, c candidate, o Operand) (string, bool) {
	if o.Var != "" {
		return r.varText(b, c, o.Var)
	}
	return o.Literal, true
}

// ctxMatch is a before/after candidate: the matched node and its tree
// distance from the target instance.
type ctxMatch struct {
	node  dom.NodeID
	dist  int
	binds map[string]string
}

// contextMatches finds the elements matching the condition's EPD within
// the parent instance that lie before (or after) the target with the
// distance within tolerance. Distance is measured in document-order
// positions between the end of the earlier subtree and the start of the
// later one — 0 means immediately adjacent, as in Figure 5's
// before(..., 0, 0, ...) "immediately precedes" usage.
func (r *runner) contextMatches(s *pib.Instance, c candidate, cc BeforeCond) []ctxMatch {
	if len(s.Nodes) == 0 || len(c.nodes) == 0 {
		return nil
	}
	// The tree was warmed when fetched, so the order predicates below
	// are read-only lookups (an explicit Reindex here would re-walk the
	// tree on every call and race between concurrent runs).
	t := s.Doc
	xStart := t.Pre(c.nodes[0])
	lastNode := c.nodes[len(c.nodes)-1]
	xEnd := t.Pre(lastNode) + t.SubtreeSize(lastNode) // one past the end
	var out []ctxMatch
	for _, m := range r.matchDeep(cc.EPD, t, s.Nodes, s.Kind == pib.SequenceInstance) {
		yStart := t.Pre(m.node)
		yEnd := yStart + t.SubtreeSize(m.node)
		var dist int
		if cc.After {
			// m must start after the target ends.
			if yStart < xEnd {
				continue
			}
			dist = yStart - xEnd
		} else {
			// m's subtree must end before the target starts.
			if yEnd > xStart {
				continue
			}
			dist = xStart - yEnd
		}
		if dist < cc.DMin || dist > cc.DMax {
			continue
		}
		out = append(out, ctxMatch{node: m.node, dist: dist, binds: m.binds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dist < out[j].dist })
	return out
}
