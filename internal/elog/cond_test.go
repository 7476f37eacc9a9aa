package elog

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// TestRegvarBindsByNameNotPosition is the regression test for regvar
// patterns that carry capture groups of their own: \var[Y] used to bind
// the Y-th group of the expanded expression, so a user group before it
// stole the binding.
func TestRegvarBindsByNameNotPosition(t *testing.T) {
	for _, tc := range []struct {
		pattern, text string
		want          map[string]string
	}{
		{`price (EUR|USD) \var[Y]`, "price EUR 42", map[string]string{"Y": "42"}},                                       // group before
		{`\var[Y] (EUR|USD)`, "42 EUR", map[string]string{"Y": "42"}},                                                   // group after
		{`(price|cost) \var[C] (\d+)\.(\d+) \var[U]`, "cost EUR 4.20 each", map[string]string{"C": "EUR", "U": "each"}}, // groups around
		{`((\var[Y]))`, "42", map[string]string{"Y": "42"}},                                                             // groups enclosing
		{`(?:x|\var[Y]) end`, "x end", map[string]string{"Y": ""}},                                                      // unmatched group
		{`\var[A]-\var[B]`, "1-2", map[string]string{"A": "1", "B": "2"}},
	} {
		doc := htmlparse.Parse("<p>" + tc.text + "</p>")
		e, err := ParseEPD(`(?.p, [(elementtext, ` + tc.pattern + `, regvar)])`)
		if err != nil {
			t.Fatalf("%s: %v", tc.pattern, err)
		}
		ms := e.Match(doc, []dom.NodeID{doc.Root()}, false)
		if len(ms) != 1 || fmt.Sprint(ms[0].binds) != fmt.Sprint(tc.want) {
			t.Errorf("EPD %s on %q: matches %v, want one binding %v", tc.pattern, tc.text, ms, tc.want)
		}
		// String path definitions share the compiler.
		s, err := ParseSPD(tc.pattern)
		if err != nil {
			t.Fatalf("SPD %s: %v", tc.pattern, err)
		}
		sm := s.Match(tc.text)
		if len(sm) != 1 || fmt.Sprint(sm[0].binds) != fmt.Sprint(tc.want) {
			t.Errorf("SPD %s on %q: matches %v, want one binding %v", tc.pattern, tc.text, sm, tc.want)
		}
	}
}

// condSubjects are the values every literal-test check runs against:
// with and without the literal, at either end, across newlines, empty,
// and not valid UTF-8.
var condSubjects = []string{
	"", "SALE", "xSALE", "SALEx", "x SALE y", "sale", "SAL", "SA\nLE", "x\nSALE", "SALE\ny", "x\nSALE\ny", "\n",
	"a.b", "a+b", "SALESALE", "\xffSALE", "SALE\xff", "SA\xffLE", "\xe2\x82", "é SALE ü", "�", "\xff",
}

// checkLiteral asserts that the literal test analyseLiteral derives for
// pattern, if any, agrees with the regexp on every subject.
func checkLiteral(t *testing.T, pattern string, subjects []string) (fast bool) {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	lit := analyseLiteral(pattern)
	if lit.op == litNone {
		return false
	}
	for _, s := range subjects {
		if got, want := lit.test([]byte(s)), re.MatchString(s); got != want {
			t.Errorf("pattern %q on %q: literal test (op %d, %q) = %v, regexp = %v", pattern, s, lit.op, lit.lit, got, want)
		}
	}
	return true
}

func TestCondLiteral(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		op      uint8
		lit     string
	}{
		{`.*SALE.*`, litContains, "SALE"},
		{`SALE`, litContains, "SALE"},
		{`.*SALE`, litContains, "SALE"},
		{`SALE.*?`, litContains, "SALE"},
		{`(?s).*SALE.*`, litContains, "SALE"},
		{`^SALE`, litPrefix, "SALE"},
		{`\ASALE.*`, litPrefix, "SALE"},
		{`SALE$`, litSuffix, "SALE"},
		{`.*SALE\z`, litSuffix, "SALE"},
		{`^SALE$`, litEqual, "SALE"},
		{`(?s)^.*SALE.*$`, litContains, "SALE"},
		{`(?s)^.*SALE$`, litSuffix, "SALE"},
		{`a\.b`, litContains, "a.b"},
		{`\Qa+b\E`, litContains, "a+b"},
		{``, litContains, ""},
		{`.*`, litContains, ""},
		{`^`, litPrefix, ""},
		{`^$`, litEqual, ""},
		{`(?s)^.*$`, litSuffix, ""},
		{`.*.*SALE`, litContains, "SALE"},
		// Everything else keeps the regexp.
		{`(?i)SALE`, litNone, ""},
		{`^.*SALE`, litNone, ""}, // .* stops at a newline, the anchor does not move
		{`SALE.*$`, litNone, ""},
		{`^.*$`, litNone, ""},
		{`(?m)^SALE`, litNone, ""},
		{`(?m)SALE$`, litNone, ""},
		{`SALE|OFFER`, litNone, ""},
		{`SAL[E3]`, litNone, ""},
		{`.+SALE`, litNone, ""},
		{`(SALE)`, litNone, ""},
		{`SALE.`, litNone, ""},
		{`S.*E`, litNone, ""},
		{"�", litNone, ""},
		{`\bSALE`, litNone, ""},
	} {
		got := analyseLiteral(tc.pattern)
		if got.op != tc.op || string(got.lit) != tc.lit {
			t.Errorf("analyseLiteral(%q) = op %d, %q; want op %d, %q", tc.pattern, got.op, got.lit, tc.op, tc.lit)
		}
		checkLiteral(t, tc.pattern, condSubjects)
	}
}

// TestCondLiteralGenerated runs the equivalence over patterns assembled
// from the pieces the analysis has to tell apart.
func TestCondLiteralGenerated(t *testing.T) {
	flags := []string{"", "(?s)", "(?i)", "(?m)", "(?sm)"}
	pre := []string{"", "^", ".*", "^.*", ".*^", `\A`, ".*.*", "(?s:.*)", "^(?s:.*)"}
	mid := []string{"", "SALE", "S", `a\.b`, "SALE|x", "SAL[E]", "(SALE)", "é", "S.LE", "SA\nLE", "�"}
	post := []string{"", "$", ".*", ".*$", "$.*", `\z`, ".*?", "(?s:.*)$"}
	fast := 0
	for _, f := range flags {
		for _, a := range pre {
			for _, m := range mid {
				for _, z := range post {
					if checkLiteral(t, f+a+m+z, condSubjects) {
						fast++
					}
				}
			}
		}
	}
	if fast < 200 {
		t.Errorf("only %d generated patterns took the literal path", fast)
	}
}

// FuzzCondLiteral: whenever a pattern gets a literal test, the test and
// regexp.MatchString agree on the subject (and on the fixed ones).
func FuzzCondLiteral(f *testing.F) {
	for _, p := range []string{`.*SALE.*`, `^SALE$`, `(?s)^.*SALE.*$`, `(?i)sale`, `a|b`, `.*`, ``, `\Qx.y\E$`, "�", `^.*x`} {
		for _, s := range []string{"x SALE y", "SA\nLE", "\xffSALE", ""} {
			f.Add(p, s)
		}
	}
	f.Fuzz(func(t *testing.T, pattern, subject string) {
		if len(pattern) > 256 {
			return // bound regexp compilation work
		}
		checkLiteral(t, pattern, append([]string{subject}, condSubjects...))
	})
}

// TestCondElementTextMatchesStringPath pins the condition's view of
// elementtext — read into a reused scratch buffer and trimmed as bytes
// — to strings.TrimSpace(ElementText(n)), in every mode, on nodes with
// no, one and several text nodes and Unicode space around them.
func TestCondElementTextMatchesStringPath(t *testing.T) {
	doc := htmlparse.Parse("<html><body><div id=a>   one <b>two</b> three </div><p>single</p><p></p>" +
		"<p> \t\n </p><ul><li>SALE item<li>item &amp; SALE <i>x</i></ul><!-- SALE --><p>sa<b>le</b></p></body></html>")
	rng := rand.New(rand.NewSource(5))
	dom.Mutate(doc, rng, 20)
	values := []string{"SALE", "one two three", "single", "", "item & SALE x", "le"}
	var buf []byte
	for n := 0; n < doc.Size(); n++ {
		want := strings.TrimSpace(doc.ElementText(dom.NodeID(n)))
		for _, v := range values {
			for mode, ref := range map[string]func() bool{
				"exact":  func() bool { return want == v },
				"substr": func() bool { return strings.Contains(want, v) },
				"regexp": func() bool { return regexp.MustCompile(regexp.QuoteMeta(v) + "|^$").MatchString(want) },
			} {
				c := AttrCond{Attr: "elementtext", Value: v, Mode: mode}
				if mode == "regexp" {
					c.Value = regexp.QuoteMeta(v) + "|^$"
				}
				if err := c.compile(); err != nil {
					t.Fatal(err)
				}
				if _, got := c.match(doc, dom.NodeID(n), &buf); got != ref() {
					t.Errorf("node %d (%q), %s %q: got %v", n, want, mode, c.Value, got)
				}
			}
		}
		c := AttrCond{Attr: "elementtext", Value: `(?s)^\var[F].*$`, Mode: "regvar"}
		if err := c.compile(); err != nil {
			t.Fatal(err)
		}
		binds, ok := c.match(doc, dom.NodeID(n), &buf)
		// Trimmed text starts with a token unless it is empty.
		if ok != (want != "") || !strings.HasPrefix(want, binds["F"]) || ok && binds["F"] == "" {
			t.Errorf("node %d (%q): regvar matched = %v, bound %q", n, want, ok, binds["F"])
		}
	}
}
