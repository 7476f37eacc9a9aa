package pib

import (
	"repro/internal/dom"
	"repro/internal/pool"
	"repro/internal/xmlenc"
)

// StoreDraws returns how many bases have taken storage for their
// instances from the pool, over the whole process.
func StoreDraws() int64 { return storeDraws.Load() }

// PoisonPools puts a value into every pool of this package for each
// of the size classes a base of n instances looks in (n's class and
// the one below) and the one above, for each n of sizes. The decoys
// are instances of the given patterns at every node of decoy, a
// document of their own: stores and list slabs full of them, under the
// patterns and one more; dedup tables whose keys for small ids map to
// them; pairings that pair everything with them and index them by
// their content hashes, which equal those of real instances wherever
// decoy has the same content; and output-cache generations whose
// hashes and emitted subtrees are garbage. A base or transform that
// reads what it did not write finds a decoy instead of the zeros of a
// fresh allocation.
func PoisonPools(decoy *dom.Tree, patterns []string, sizes ...int) {
	root := &Instance{Pattern: "document", URL: "cat", Kind: DocumentInstance, Doc: decoy, Nodes: []dom.NodeID{decoy.Root()}}
	var decoys []*Instance
	for i := range decoy.Size() {
		for _, p := range patterns {
			decoys = append(decoys, &Instance{Pattern: p, URL: "cat", Text: "decoy", Doc: decoy, Parent: root,
				Nodes: []dom.NodeID{dom.NodeID(i)}, Children: []*Instance{root}, ID: int32(i), Kind: NodeInstance, Rule: 1})
		}
	}
	index := func() map[uint64][]*Instance {
		idx := map[uint64][]*Instance{}
		for _, d := range decoys {
			idx[d.ContentHash()] = append(idx[d.ContentHash()], d)
		}
		return idx
	}
	classes := map[int]bool{}
	for _, n := range sizes {
		_, mid := pool.SizeClass(n)
		for class := max(mid-1, 0); class <= mid+1; class++ {
			classes[class] = true
		}
	}
	for class := range classes {
		size := pool.ClassSize(class)
		st := &store{slab: make([]Instance, size), byPat: map[string][]*Instance{}}
		l := &lists{ptrs: make([]*Instance, 2*size), nodes: make([]dom.NodeID, size)}
		for i := range st.slab {
			st.slab[i] = *decoys[i%len(decoys)]
			l.ptrs[2*i], l.ptrs[2*i+1] = &st.slab[i], root
			l.nodes[i] = -1
		}
		for i, p := range append([]string{"decoy"}, patterns...) {
			st.byPat[p] = l.ptrs[i : i+1 : i+1]
		}
		stores.Put(class, st)
		listSlabs.Put(class, l)

		// Keys of string ids as a base interns them: the pattern of its
		// first instance (document) is 0 and its URL 1.
		t := &table{all: map[instKey]*Instance{}, ids: map[string]uint32{}}
		for pat := range uint32(8) {
			for parent := range int32(44) {
				for first := range 96 {
					t.all[instKey{pattern: pat, url: 1, parent: parent, nodes: 1, first: dom.NodeID(first)}] = &st.slab[first%size]
				}
			}
		}
		tables.Put(class, t)

		p := &pairing{of: make([]*Instance, size), used: make([]bool, size), byHash: map[string]map[uint64][]*Instance{}, n: size}
		for i := range p.of {
			p.of[i], p.used[i] = &st.slab[i], true
		}
		for _, pat := range patterns {
			p.byHash[pat] = index()
		}
		pairings.Put(class, p)

		g := &generation{out: make([]uint64, size), subs: map[uint64][]cachedSub{}, slab: make([]cachedSub, size), room: size}
		el := xmlenc.NewElement("decoy")
		el.Freeze()
		for i := range g.out {
			g.out[i] = ^uint64(i)
			g.slab[i] = cachedSub{el: el, nodes: 1}
			g.subs[uint64(i)] = g.slab[i : i+1]
		}
		generations.Put(class, g)
	}
}
