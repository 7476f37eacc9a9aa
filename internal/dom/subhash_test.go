package dom_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// naiveSubtreeHash is the reference implementation of SubtreeHash: a
// direct recursion over the subtree through the public accessors, which
// first lays the hashed words out in a slice and then folds them,
// sharing no code with the packed single-pass version in dom. A string
// is its length followed by its bytes as little-endian 8-byte words,
// the last one zero-padded.
func naiveSubtreeHash(t *dom.Tree, n dom.NodeID) uint64 {
	const (
		seed  = 14695981039346656037
		prime = 1099511628211
	)
	fold := func(h uint64, words []uint64) uint64 {
		for _, w := range words {
			h = (h ^ w) * prime
			h ^= h >> 32
		}
		return h
	}
	str := func(s string) []uint64 {
		padded := append([]byte(s), make([]byte, 7)...)
		words := []uint64{uint64(len(s))}
		for i := 0; i < len(s); i += 8 {
			words = append(words, binary.LittleEndian.Uint64(padded[i:]))
		}
		return words
	}
	words := []uint64{uint64(t.Kind(n))}
	if t.Kind(n) == dom.Element {
		words = append(words, uint64(len(t.Attrs(n))))
		for _, a := range t.Attrs(n) {
			words = append(append(words, str(a.Name)...), str(a.Value)...)
		}
	} else {
		words = append(words, str(t.Text(n))...)
	}
	for c := t.FirstChild(n); c != dom.Nil; c = t.NextSibling(c) {
		words = append(words, naiveSubtreeHash(t, c))
	}
	return fold(fold(seed, str(t.Label(n))), words)
}

// findByAttr returns the first node (in id order) carrying attr=value.
func findByAttr(t *dom.Tree, attr, value string) dom.NodeID {
	for n := 0; n < t.Size(); n++ {
		if v, ok := t.Attr(dom.NodeID(n), attr); ok && v == value {
			return dom.NodeID(n)
		}
	}
	return dom.Nil
}

func TestSubtreeHashStableAcrossDocuments(t *testing.T) {
	// The same fragment embedded at different positions of two
	// independently parsed documents (different surrounding labels,
	// different interning order) must hash identically.
	const frag = `<div id="frag" class="c"><span>alpha</span><i>beta</i><!--note--></div>`
	a := htmlparse.Parse(`<html><body><p>before</p>` + frag + `</body></html>`)
	b := htmlparse.Parse(`<html><body><table><tr><td>` + frag + `</td></tr></table><p>x</p></body></html>`)
	na, nb := findByAttr(a, "id", "frag"), findByAttr(b, "id", "frag")
	if na == dom.Nil || nb == dom.Nil {
		t.Fatal("fragment not found")
	}
	if a.SubtreeHash(na) != b.SubtreeHash(nb) {
		t.Errorf("equal fragments hash differently: %x vs %x", a.SubtreeHash(na), b.SubtreeHash(nb))
	}
	// A sibling subtree with different content must not collide.
	if pa := findByAttr(a, "id", "frag"); a.SubtreeHash(a.Parent(pa)) == a.SubtreeHash(pa) {
		t.Error("parent and child subtree hashes collide")
	}
}

func TestSubtreeHashMutationChangesAncestors(t *testing.T) {
	tr := htmlparse.Parse(`<html><body><div><p><span>deep</span></p><p>sib</p></div><div>other</div></body></html>`)
	before := make([]uint64, tr.Size())
	for n := range before {
		before[n] = tr.SubtreeHash(dom.NodeID(n))
	}
	// Mutate the deepest text node.
	var target dom.NodeID = dom.Nil
	for n := 0; n < tr.Size(); n++ {
		if tr.Kind(dom.NodeID(n)) == dom.Text && tr.Text(dom.NodeID(n)) == "deep" {
			target = dom.NodeID(n)
		}
	}
	if target == dom.Nil {
		t.Fatal("text node not found")
	}
	tr.SetText(target, "DEEPER")
	onPath := map[dom.NodeID]bool{}
	for n := target; n != dom.Nil; n = tr.Parent(n) {
		onPath[n] = true
	}
	for n := 0; n < tr.Size(); n++ {
		changed := tr.SubtreeHash(dom.NodeID(n)) != before[n]
		if onPath[dom.NodeID(n)] && !changed {
			t.Errorf("node %d on the mutation path did not change hash", n)
		}
		if !onPath[dom.NodeID(n)] && changed {
			t.Errorf("node %d off the mutation path changed hash", n)
		}
	}
}

func TestSubtreeHashMatchesNaiveOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		tr := dom.RandomTree(rng, 200, []string{"a", "b", "c"}, 5)
		dom.Mutate(tr, rng, 30)
		for n := 0; n < tr.Size(); n++ {
			if got, want := tr.SubtreeHash(dom.NodeID(n)), naiveSubtreeHash(tr, dom.NodeID(n)); got != want {
				t.Fatalf("tree %d node %d: SubtreeHash %x != naive %x", i, n, got, want)
			}
		}
	}
}

func FuzzSubtreeHash(f *testing.F) {
	f.Add("<html><body><p>hi</p></body></html>", int64(1))
	f.Add(`<div a="1"><span>x</span><!--c--><i>y</i></div>`, int64(2))
	f.Add("<table><tr><td>cell</td></tr></table>", int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		tr := htmlparse.Parse(src)
		dom.Mutate(tr, rand.New(rand.NewSource(seed)), 8)
		for n := 0; n < tr.Size(); n++ {
			if got, want := tr.SubtreeHash(dom.NodeID(n)), naiveSubtreeHash(tr, dom.NodeID(n)); got != want {
				t.Fatalf("node %d: SubtreeHash %x != naive %x", n, got, want)
			}
		}
	})
}
