package transform

import (
	"bytes"
	"testing"

	"repro/internal/web"
	"repro/internal/xmlenc"
)

// FuzzIncrementalTransform drives the whole end-to-end incremental
// tick under fuzzed churn and pins both byte-identity guarantees at
// once: (1) a long-lived wrapper source, reusing matches and output
// subtrees across ticks, must emit XML identical to a freshly compiled
// source's evaluation of every document version; (2) the splice-based xmlenc.Encoder must produce
// the exact bytes of the plain marshaler for every emitted document.
func FuzzIncrementalTransform(f *testing.F) {
	f.Add(int64(1), uint8(4), false)
	f.Add(int64(7), uint8(8), false)
	f.Add(int64(31), uint8(6), true)
	f.Add(int64(-12345), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, grow bool) {
		n := int(steps)%8 + 2
		sim := web.New()
		sim.SetStatic("shop.example.com/churn", churnPage())
		churnInc := &web.ChurnFetcher{Inner: sim, Seed: seed, Grow: grow}
		churnCold := &web.ChurnFetcher{Inner: sim, Seed: seed, Grow: grow}
		inc := newChurnSource(churnInc)
		enc := xmlenc.NewEncoder()
		for step := 0; step < n; step++ {
			got, err := inc.Poll()
			if err != nil {
				t.Fatalf("step %d incremental: %v", step, err)
			}
			cold := newChurnSource(churnCold)
			want, err := cold.Poll()
			if err != nil {
				t.Fatalf("step %d cold: %v", step, err)
			}
			plain := xmlenc.MarshalIndentBytes(got[0])
			if want, got := xmlenc.MarshalIndentBytes(want[0]), plain; !bytes.Equal(got, want) {
				t.Fatalf("step %d: incremental output differs from cold rebuild:\n--- cold ---\n%s\n--- incremental ---\n%s", step, want, got)
			}
			if spliced := enc.MarshalIndentBytes(got[0]); !bytes.Equal(spliced, plain) {
				t.Fatalf("step %d: splice encoder differs from plain marshaler:\n--- plain ---\n%s\n--- spliced ---\n%s", step, plain, spliced)
			}
			churnInc.Advance()
			churnCold.Advance()
		}
	})
}
