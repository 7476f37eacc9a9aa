package htmlparse

import (
	"strings"

	"repro/internal/dom"
)

// voidElements never have content; an end tag for them is ignored.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// autoClose maps a tag name to the set of open tags it implicitly closes
// when it starts: e.g. a new <li> closes a currently open <li>.
var autoClose = map[string][]string{
	"li":     {"li"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"tr":     {"tr", "td", "th"},
	"thead":  {"tr", "td", "th"},
	"tbody":  {"thead", "tr", "td", "th"},
	"tfoot":  {"tbody", "tr", "td", "th"},
	"p":      {"p"},
	"option": {"option"},
	"dt":     {"dt", "dd"},
	"dd":     {"dt", "dd"},
}

// closeBarrier contains tags that act as scope boundaries for implicit
// closing: an auto-close never propagates past them.
var closeBarrier = map[string]bool{
	"table": true, "html": true, "body": true, "div": true, "ul": true,
	"ol": true, "select": true, "dl": true,
}

// headElements are tags that, when they appear directly under html before
// any body content, are placed in a synthesized head element.
var headElements = map[string]bool{
	"title": true, "meta": true, "link": true, "base": true, "style": true,
}

// Body returns the body element of a parsed document, or the root if no
// body exists (which Parse prevents).
func Body(t *dom.Tree) dom.NodeID {
	for c := t.FirstChild(t.Root()); c != dom.Nil; c = t.NextSibling(c) {
		if t.Label(c) == "body" {
			return c
		}
	}
	return t.Root()
}

// Render serializes a tree back to HTML text. It is the inverse of Parse
// up to whitespace and repaired malformations and is used by the
// transformation server's HTML deliverer.
func Render(t *dom.Tree) string {
	var b strings.Builder
	var rec func(n dom.NodeID)
	rec = func(n dom.NodeID) {
		switch t.Kind(n) {
		case dom.Text:
			b.WriteString(EscapeText(t.Text(n)))
			return
		case dom.Comment:
			b.WriteString("<!--")
			b.WriteString(t.Text(n))
			b.WriteString("-->")
			return
		}
		name := t.Label(n)
		b.WriteByte('<')
		b.WriteString(name)
		for _, a := range t.Attrs(n) {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Value))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		if voidElements[name] {
			return
		}
		for c := t.FirstChild(n); c != dom.Nil; c = t.NextSibling(c) {
			rec(c)
		}
		b.WriteString("</")
		b.WriteString(name)
		b.WriteByte('>')
	}
	if t.Size() > 0 {
		rec(t.Root())
	}
	return b.String()
}
