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

// ParseLegacy is the seed token-based parser, retained verbatim as the
// reference implementation: FuzzParseArena and the differential tests
// assert that the fused builder behind Parse (builder.go) produces
// byte-identical trees. New parsing behaviour must change both
// implementations.
func ParseLegacy(src string) *dom.Tree {
	t := dom.New(len(src) / 16)
	z := NewTokenizer(src)

	var root, head, body dom.NodeID = dom.Nil, dom.Nil, dom.Nil
	// stack holds the chain of currently open elements.
	type openElem struct {
		node dom.NodeID
		name string
	}
	var stack []openElem

	ensureRoot := func() {
		if root == dom.Nil {
			root = t.AddRoot("html")
			stack = append(stack, openElem{root, "html"})
		}
	}
	ensureBody := func() dom.NodeID {
		ensureRoot()
		if body == dom.Nil {
			body = t.AppendChild(root, "body")
			stack = append(stack, openElem{body, "body"})
		}
		return body
	}
	cur := func() dom.NodeID {
		if len(stack) == 0 {
			return ensureBody()
		}
		top := stack[len(stack)-1]
		if top.name == "html" {
			// Text and non-head elements directly under html belong in
			// body.
			return dom.Nil
		}
		return top.node
	}

	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case DoctypeToken:
			// Ignored: the parse tree of the paper starts at html.
		case CommentToken:
			parent := cur()
			if parent == dom.Nil {
				parent = ensureBody()
			}
			t.AppendComment(parent, tok.Data)
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				// Inter-tag whitespace is not meaningful for wrapping and
				// would bloat every pattern path; drop it like the Lixto
				// preprocessor does.
				continue
			}
			parent := cur()
			if parent == dom.Nil {
				parent = ensureBody()
			}
			t.AppendText(parent, tok.Data)
		case StartTagToken, SelfClosingToken:
			name := tok.Data
			switch name {
			case "html":
				if root == dom.Nil {
					root = t.AddRoot("html")
					stack = append(stack, openElem{root, "html"})
					for _, a := range tok.Attrs {
						t.SetAttr(root, a.Name, a.Value)
					}
				}
				continue
			case "head":
				ensureRoot()
				if head == dom.Nil {
					head = t.AppendChild(root, "head")
					stack = append(stack, openElem{head, "head"})
				}
				continue
			case "body":
				ensureRoot()
				if body == dom.Nil {
					// Close an open head.
					for len(stack) > 0 && stack[len(stack)-1].name != "html" {
						stack = stack[:len(stack)-1]
					}
					body = t.AppendChild(root, "body")
					stack = append(stack, openElem{body, "body"})
					for _, a := range tok.Attrs {
						t.SetAttr(body, a.Name, a.Value)
					}
				}
				continue
			}
			// Implicit closing.
			if closes, ok := autoClose[name]; ok {
				for len(stack) > 0 {
					top := stack[len(stack)-1].name
					if closeBarrier[top] {
						break
					}
					matched := false
					for _, c := range closes {
						if top == c {
							matched = true
							break
						}
					}
					if !matched {
						break
					}
					stack = stack[:len(stack)-1]
				}
			}
			parent := cur()
			if parent == dom.Nil {
				if headElements[name] && body == dom.Nil {
					ensureRoot()
					if head == dom.Nil {
						head = t.AppendChild(root, "head")
						stack = append(stack, openElem{head, "head"})
					}
					parent = head
				} else {
					parent = ensureBody()
				}
			}
			n := t.AppendChild(parent, name)
			for _, a := range tok.Attrs {
				t.SetAttr(n, a.Name, a.Value)
			}
			if tok.Type == StartTagToken && !voidElements[name] {
				stack = append(stack, openElem{n, name})
			}
		case EndTagToken:
			name := tok.Data
			if voidElements[name] {
				continue
			}
			// Find the matching open element; if none, ignore the stray
			// end tag.
			idx := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].name == name {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			// Never pop the synthetic html/body/head wrappers via
			// mismatched tags deeper in the stack.
			stack = stack[:idx]
			switch name {
			case "html":
				stack = append(stack, openElem{root, "html"})
			case "body":
				if body != dom.Nil {
					// body stays conceptually open for trailing content.
					stack = append(stack, openElem{root, "html"})
				}
			}
		}
	}
	if root == dom.Nil {
		ensureBody()
	}
	if body == dom.Nil {
		// Documents with only head content still get an empty body.
		b := dom.Nil
		for c := t.FirstChild(root); c != dom.Nil; c = t.NextSibling(c) {
			if t.Label(c) == "body" {
				b = c
				break
			}
		}
		if b == dom.Nil {
			t.AppendChild(root, "body")
		}
	}
	return t
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
