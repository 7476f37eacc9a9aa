package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/pkg/lixto"
)

// TestQuickstartIncrementalDifferential pins the SDK contract that
// cross-call reuse changes work, never output: re-extracting mutated
// versions of the quickstart page through one long-lived wrapper (whose
// subtree caches persist across calls) yields instance bases
// byte-identical to a freshly compiled wrapper's extraction of each
// version.
func TestQuickstartIncrementalDifferential(t *testing.T) {
	opts := []lixto.Option{lixto.WithAuxiliary("page"), lixto.WithRoot("books")}
	w, err := lixto.Compile(wrapper, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	cur := htmlparse.Parse(page)
	for step := 0; step < 6; step++ {
		cold, err := lixto.Compile(wrapper, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := cold.Extract(context.Background(), lixto.Tree(cur))
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		gotRes, err := w.Extract(context.Background(), lixto.Tree(cur))
		if err != nil {
			t.Fatalf("step %d incremental: %v", step, err)
		}
		if want, got := wantRes.Base.Dump(), gotRes.Base.Dump(); got != want {
			t.Errorf("step %d: incremental base diverges from cold extraction:\n--- cold ---\n%s--- incremental ---\n%s", step, want, got)
		}
		next := cur.Clone()
		dom.Mutate(next, rng, 3)
		cur = next
	}
}
