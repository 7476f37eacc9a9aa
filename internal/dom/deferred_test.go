package dom_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// textLabel is the #text symbol of mixedSource's tree.
var textLabel = forced(mixedSource).LabelIDFor(dom.TextLabel)

// forced parses src and builds the tree up front, by its first call.
func forced(src string) *dom.Tree {
	t := htmlparse.Parse(src)
	t.Size()
	return t
}

// methodArgs makes the arguments of a *dom.Tree method call from its
// type: node ids from ids in turn, the #text symbol for a label (with
// dom.Text for a kind, as AppendSourceLeaf wants them paired), a few
// fixed values for every other parameter type, and for a visitor a
// function that records the visits in *visits. A parameter type it does
// not know fails the test, so a new method cannot slip past the
// comparison.
func methodArgs(t *testing.T, m reflect.Method, ids []dom.NodeID, str string, visits *[]dom.NodeID) []reflect.Value {
	t.Helper()
	var args []reflect.Value
	nextID, nextInt := 0, 0
	for i := 1; i < m.Type.NumIn(); i++ { // In(0) is the receiver
		var v any
		switch p := m.Type.In(i); p {
		case reflect.TypeOf(dom.NodeID(0)):
			v = ids[nextID%len(ids)]
			nextID++
		case reflect.TypeOf(dom.LabelID(0)):
			v = textLabel
		case reflect.TypeOf(dom.Kind(0)):
			v = dom.Text
		case reflect.TypeOf(""):
			v = str
		case reflect.TypeOf(0):
			v = []int{0, 4}[nextInt%2] // a source span, for AppendSourceLeaf
			nextInt++
		case reflect.TypeOf([]byte(nil)):
			v = []byte("prefix ")
		case reflect.TypeOf([]dom.Attr(nil)):
			v = []dom.Attr{{Name: "k", Value: "v"}, {Name: str, Value: "w"}}
		case reflect.TypeOf([]dom.SourceAttr(nil)):
			v = []dom.SourceAttr{{Name: "k", Value: "v", NameOff: -1, ValOff: -1}}
		case reflect.TypeOf([]dom.NodeID(nil)):
			v = []dom.NodeID{ids[0], 1, ids[0], 0}
		case reflect.TypeOf(func(dom.NodeID) {}):
			v = func(n dom.NodeID) { *visits = append(*visits, n) }
		default:
			t.Fatalf("%s: no test argument for parameter type %s", m.Name, p)
		}
		args = append(args, reflect.ValueOf(v))
	}
	return args
}

// outcome is what one method call gave: its results, made comparable
// (a tree by its term rendering and keys), the visits of a visitor
// argument, or the panic it raised.
func outcome(t *testing.T, tr *dom.Tree, m reflect.Method, ids []dom.NodeID, str string) (out []any) {
	var visits []dom.NodeID
	args := methodArgs(t, m, ids, str, &visits)
	defer func() {
		if r := recover(); r != nil {
			out = []any{fmt.Sprint("panic: ", r)}
		}
	}()
	for _, r := range m.Func.Call(append([]reflect.Value{reflect.ValueOf(tr)}, args...)) {
		if c, ok := r.Interface().(*dom.Tree); ok {
			out = append(out, c.String(), c.ContentKey(), c.Fingerprint())
			continue
		}
		out = append(out, r.Interface())
	}
	return append(out, visits)
}

// TestDeferredMatchesForced calls every exported *dom.Tree method as the
// first use of an unbuilt parsed tree and as a later call on one built
// up front: each result, and the whole tree afterwards, must agree.
// Each method runs with three argument sets: an element, a text node
// and the root, with strings that hit and miss.
func TestDeferredMatchesForced(t *testing.T) {
	elem, text := dom.NodeID(2), dom.NodeID(3)
	ref := forced(mixedSource)
	if ref.Label(elem) != "div" || ref.Kind(text) != dom.Text {
		t.Fatalf("node %d is %s, node %d is %v: the fixture moved", elem, ref.Label(elem), text, ref.Kind(text))
	}
	variants := []struct {
		ids []dom.NodeID
		str string
	}{
		{[]dom.NodeID{elem, text}, "id"},
		{[]dom.NodeID{text, elem}, "div"},
		{[]dom.NodeID{ref.Root(), elem}, dom.TextLabel},
	}
	typ := reflect.TypeOf(ref)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		for v, args := range variants {
			lazy, built := htmlparse.Parse(mixedSource), forced(mixedSource)
			got, want := outcome(t, lazy, m, args.ids, args.str), outcome(t, built, m, args.ids, args.str)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, arguments %d: unbuilt tree gave %v, built %v", m.Name, v, got, want)
				continue
			}
			sameTree(t, m.Name+" after the call", lazy, built)
			if lazy.ContentKey() != built.ContentKey() {
				t.Errorf("%s, arguments %d: content keys differ after the call", m.Name, v)
			}
		}
	}

	// The functions over trees, each as the first use of unbuilt ones.
	if !dom.Equal(htmlparse.Parse(mixedSource), htmlparse.Parse(mixedSource)) ||
		!dom.Equal(htmlparse.Parse(mixedSource), ref) || !dom.Equal(ref, htmlparse.Parse(mixedSource)) {
		t.Error("Equal of unbuilt trees is false")
	}
	if dom.Equal(htmlparse.Parse(mixedSource), htmlparse.Parse("<p>other</p>")) {
		t.Error("Equal of two unbuilt, different trees is true")
	}
	sameTree(t, "Clone of an unbuilt tree", htmlparse.Parse(mixedSource).Clone(), ref)
	nodes, edges := htmlparse.Parse(mixedSource).EncodeBinary()
	sameTree(t, "DecodeBinary of an unbuilt tree's encoding", dom.DecodeBinary(nodes, edges), ref)
	if got := htmlparse.Parse(mixedSource).String(); got != ref.String() {
		t.Errorf("String of an unbuilt tree:\n%s\nwant\n%s", got, ref.String())
	}
}

// TestDeferredConcurrentFirstUse has eight goroutines make the first
// call on one unbuilt tree at once, each a different one: the build
// runs once and every caller sees it whole. The calls are the ones safe
// on a shared tree (no lazy index is read outside Warm). Run under
// -race.
func TestDeferredConcurrentFirstUse(t *testing.T) {
	firsts := []func(tr *dom.Tree) any{
		func(tr *dom.Tree) any { return tr.Size() },
		func(tr *dom.Tree) any { return tr.Label(2) },
		func(tr *dom.Tree) any { return tr.Attrs(2) },
		func(tr *dom.Tree) any { return tr.ElementText(tr.Root()) },
		func(tr *dom.Tree) any { return tr.ContentKey() },
		func(tr *dom.Tree) any { tr.Warm(); return nil },
		func(tr *dom.Tree) any { tr.WarmIndex(); return nil },
		func(tr *dom.Tree) any { return tr.Clone().String() },
	}
	ref := forced(mixedSource)
	want := make([]any, len(firsts))
	for i, f := range firsts {
		want[i] = f(ref)
	}
	for round := 0; round < 50; round++ {
		tr := htmlparse.Parse(mixedSource)
		got := make([]any, len(firsts))
		var wg sync.WaitGroup
		for i, f := range firsts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = f(tr)
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: concurrent first calls gave %v, want %v", round, got, want)
		}
		sameTree(t, "after concurrent first use", tr, ref)
	}
}

// deferredEdits are the mutations FuzzDeferredParse applies; each one
// changes what the tree holds or how it holds it.
var deferredEdits = []func(tr *dom.Tree, seed int64){
	func(tr *dom.Tree, _ int64) { tr.SetAttr(tr.Root(), "k", "v") },
	func(tr *dom.Tree, _ int64) { tr.AppendChild(tr.Root(), "x") },
	func(tr *dom.Tree, _ int64) { tr.AppendText(tr.Root(), "t") },
	func(tr *dom.Tree, _ int64) { tr.SetAttrs(tr.Root(), nil) },
	func(tr *dom.Tree, _ int64) {
		for i := tr.Size() - 1; i >= 0; i-- {
			if n := dom.NodeID(i); tr.Kind(n) != dom.Element {
				tr.SetText(n, "rewritten")
				return
			}
		}
		tr.AppendComment(tr.Root(), "c")
	},
	func(tr *dom.Tree, seed int64) { dom.Mutate(tr, rand.New(rand.NewSource(seed)), 3) },
}

// FuzzDeferredParse: on any input, an unbuilt parsed tree and one
// built up front carry the same content key, the hash of the source;
// the same edit applied to the first before its build (the edit builds
// it) and to the second after its build leaves equal trees, whose keys
// are no longer the source key but the fingerprint; and an untouched
// parse of the same source keeps the source key.
func FuzzDeferredParse(f *testing.F) {
	for _, s := range []string{"", "plain", "<p>x</p>", mixedSource, "<table><tr><td>a<td>b</table>"} {
		for op := range deferredEdits {
			f.Add(s, uint8(op))
		}
	}
	f.Fuzz(func(t *testing.T, src string, op uint8) {
		lazy, built, untouched := htmlparse.Parse(src), forced(src), htmlparse.Parse(src)
		key := untouched.ContentKey()
		if lazy.ContentKey() != key || built.ContentKey() != key {
			t.Fatalf("content keys of one source differ: %#x %#x %#x", lazy.ContentKey(), built.ContentKey(), key)
		}
		edit := deferredEdits[int(op)%len(deferredEdits)]
		edit(lazy, int64(op))
		edit(built, int64(op))
		sameTree(t, "edited before and after the build", lazy, built)
		for name, tr := range map[string]*dom.Tree{"edited before the build": lazy, "edited after the build": built} {
			if k := tr.ContentKey(); k == key || k != tr.Fingerprint() {
				t.Fatalf("%s: content key %#x, source key %#x, fingerprint %#x", name, k, key, tr.Fingerprint())
			}
		}
		if untouched.ContentKey() != key || !dom.Equal(untouched, forced(src)) {
			t.Fatal("an untouched parse changed")
		}
	})
}
