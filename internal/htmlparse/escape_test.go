package htmlparse

import (
	"strings"
	"testing"
)

// The escapers as they were: one strings.Replacer built per call. The
// scanning implementation must produce the same bytes for any input.
func escapeTextOld(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
}

func escapeAttrOld(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}

var escapeSeeds = []string{
	"",
	"plain text, nothing to escape",
	"&", "<", ">", `"`,
	"a&b", "&lead", "trail&", "&&&&",
	`<a href="x?y=1&z=2">R&D > "quotes" < 'single'</a>`,
	"already &amp; escaped &lt;",
	"$ 12.50 SALE item 3.7 @4",
	"café — 日本語 & <b>",
	"\xff\xfe&\x80<\xc3", // invalid UTF-8 passes through byte for byte
	"\x00<\x00>",
}

func TestEscape(t *testing.T) {
	for _, s := range escapeSeeds {
		if got, want := EscapeText(s), escapeTextOld(s); got != want {
			t.Errorf("EscapeText(%q) = %q, want %q", s, got, want)
		}
		if got, want := EscapeAttr(s), escapeAttrOld(s); got != want {
			t.Errorf("EscapeAttr(%q) = %q, want %q", s, got, want)
		}
	}
	if got := EscapeText(`a "quoted" <word>`); got != `a "quoted" &lt;word&gt;` {
		t.Errorf("EscapeText escapes quotes: %q", got)
	}
	if got := EscapeAttr(`a "quoted" <word>`); got != `a &quot;quoted&quot; &lt;word&gt;` {
		t.Errorf("EscapeAttr = %q", got)
	}
}

// TestEscapeNoAlloc pins the common path: a string with nothing to
// escape comes back as it went in, without an allocation. The
// serializers call the escapers once per text node and attribute.
func TestEscapeNoAlloc(t *testing.T) {
	clean := []string{"", "SALE item 17.3 @12", "$ 42.50", `it's "quoted" text`, "café"}
	var sink string
	for _, s := range clean {
		if n := testing.AllocsPerRun(100, func() { sink = EscapeText(s) }); n != 0 || sink != s {
			t.Errorf("EscapeText(%q): %.0f allocs, returned %q", s, n, sink)
		}
	}
	for _, s := range []string{"", "section", "bench.example.com/catalogue?page=2", "café"} {
		if n := testing.AllocsPerRun(100, func() { sink = EscapeAttr(s) }); n != 0 || sink != s {
			t.Errorf("EscapeAttr(%q): %.0f allocs, returned %q", s, n, sink)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = EscapeText("R&D <dept>") }); n != 1 {
		t.Errorf("EscapeText with replacements: %.0f allocs, want 1 (the output)", n)
	}
}

// FuzzEscape holds the scanning escapers to the Replacer-based ones on
// arbitrary (including invalid UTF-8) input.
func FuzzEscape(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := EscapeText(s), escapeTextOld(s); got != want {
			t.Fatalf("EscapeText(%q) = %q, want %q", s, got, want)
		}
		if got, want := EscapeAttr(s), escapeAttrOld(s); got != want {
			t.Fatalf("EscapeAttr(%q) = %q, want %q", s, got, want)
		}
	})
}

func BenchmarkEscapeText(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EscapeText("SALE item 17.3 @12")
	}
}
