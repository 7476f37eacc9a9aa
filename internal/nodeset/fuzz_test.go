package nodeset

import (
	"math/rand"
	"testing"

	"repro/internal/dom"
)

// inPreorder returns a copy of t built top-down, left to right: the
// same tree with its NodeIDs in document order.
func inPreorder(t *dom.Tree) *dom.Tree {
	out := dom.New(t.Size())
	id := make([]dom.NodeID, t.Size())
	t.Walk(func(n dom.NodeID) {
		if p := t.Parent(n); p == dom.Nil {
			id[n] = out.AddRoot(t.Label(n))
		} else {
			id[n] = out.AppendChild(id[p], t.Label(n))
		}
	})
	return out
}

// sweep is the per-node definition of an axis image: y is in it when
// rel(x, y) holds for some member x, found by walking y's ancestors.
func sweep(t *dom.Tree, s Set, self, transitive bool) Set {
	out := New(t)
	for i := 0; i < t.Size(); i++ {
		y := dom.NodeID(i)
		if self && s.Has(y) {
			out.Add(y)
		}
		for a := t.Parent(y); a != dom.Nil; a = t.Parent(a) {
			if s.Has(a) {
				out.Add(y)
				break
			}
			if !transitive {
				break
			}
		}
	}
	return out
}

// FuzzNodesetAxes: on random trees, built in document order and out of
// it, and after mutations that append nodes in the middle of them,
// Descendants, DescendantsOrSelf and Children of random sets equal the
// per-node sweep, whichever of the window and the sweep computed them.
func FuzzNodesetAxes(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(3), uint8(4), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1), uint8(20), uint8(8))
	f.Add(int64(3), uint16(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint16(129), uint8(7), uint8(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, fanout, density, mutations uint8) {
		rng := rand.New(rand.NewSource(seed))
		random := dom.RandomTree(rng, int(n%700)+1, []string{"a", "b", "c"}, int(fanout%9)+1)
		ordered := inPreorder(random)
		if !ordered.DocOrdered() {
			t.Fatal("a tree built in preorder is not in document order")
		}
		mutated := inPreorder(random)
		dom.Mutate(mutated, rng, int(mutations%16))
		for name, tr := range map[string]*dom.Tree{"random": random, "ordered": ordered, "mutated": mutated} {
			s := New(tr)
			for i := 0; i < tr.Size(); i++ {
				if rng.Intn(64) < int(density%64) {
					s.Add(dom.NodeID(i))
				}
			}
			for _, c := range []struct {
				axis       string
				got        Set
				self, tran bool
			}{
				{"Descendants", Descendants(tr, s), false, true},
				{"DescendantsOrSelf", DescendantsOrSelf(tr, s), true, true},
				{"Children", Children(tr, s), false, false},
			} {
				if want := sweep(tr, s, c.self, c.tran); !Equal(c.got, want) {
					t.Fatalf("%s tree (document order %v), %d nodes: %s of %v is %v, want %v",
						name, tr.DocOrdered(), tr.Size(), c.axis, s.Nodes(tr), c.got.Nodes(tr), want.Nodes(tr))
				}
			}
		}
	})
}
