// Package xmlenc provides the XML document model used on the output side
// of the Lixto stack: the XML Transformer (Section 3.1) serializes
// pattern instance bases into XML, and the Transformation Server
// (Section 5) hands XML documents between pipeline components.
//
// It is intentionally small: element nodes with attributes, text
// children, a serializer with escaping and optional indentation, and a
// parser for the documents the stack itself produces.
package xmlenc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is an XML element.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []*Node
	// Text is character data; a node with non-empty Text and no
	// children is a text-content element, a node with Name == "" is a
	// bare text node.
	Text string
	// frozen marks the subtree immutable: it is shared between a
	// published document and the incremental transformer's output
	// cache. See freeze.go.
	frozen bool
}

// Attr is an attribute.
type Attr struct{ Name, Value string }

// NewElement returns an element node.
func NewElement(name string) *Node { return &Node{Name: name} }

// NewText returns a bare text node.
func NewText(text string) *Node { return &Node{Text: text} }

// SetAttr sets an attribute, replacing an existing one of the same name.
func (n *Node) SetAttr(name, value string) *Node {
	assertMutable(n)
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{name, value})
	return n
}

// Attr returns the attribute value and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Append adds children and returns n.
func (n *Node) Append(children ...*Node) *Node {
	assertMutable(n)
	n.Children = append(n.Children, children...)
	return n
}

// AppendElement adds and returns a new child element.
func (n *Node) AppendElement(name string) *Node {
	assertMutable(n)
	c := NewElement(name)
	n.Children = append(n.Children, c)
	return c
}

// AppendTextElement adds <name>text</name> and returns n.
func (n *Node) AppendTextElement(name, text string) *Node {
	assertMutable(n)
	n.Children = append(n.Children, &Node{Name: name, Text: text})
	return n
}

// SetText sets the node's character data and returns n.
func (n *Node) SetText(text string) *Node {
	assertMutable(n)
	n.Text = text
	return n
}

// FirstChild returns the first child element with the given name, or nil.
func (n *Node) FirstChild(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Find returns all descendants (including n) with the given name, in
// document order.
func (n *Node) Find(name string) []*Node {
	var out []*Node
	var rec func(m *Node)
	rec = func(m *Node) {
		if m.Name == name {
			out = append(out, m)
		}
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return out
}

// TextContent returns the concatenated character data of the subtree.
func (n *Node) TextContent() string {
	var b strings.Builder
	var rec func(m *Node)
	rec = func(m *Node) {
		b.WriteString(m.Text)
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return b.String()
}

// Marshal serializes the document without extra whitespace.
func Marshal(n *Node) string {
	return string((*Encoder)(nil).writeNode(nil, n, -1))
}

// MarshalIndent serializes the document with two-space indentation.
func MarshalIndent(n *Node) string { return string(MarshalIndentBytes(n)) }

// MarshalIndentBytes is MarshalIndent returning the encoded bytes
// directly, without the []byte→string copy. The server's delivery
// plane encodes every published snapshot exactly once and serves the
// bytes to every reader, so the copy would be pure overhead.
func MarshalIndentBytes(n *Node) []byte {
	return append((*Encoder)(nil).writeNode(nil, n, 0), '\n')
}

// appendEscaped appends s with & < > (and " in attribute values)
// replaced by their entities, and U+000D written as &#13;: a literal
// carriage return would not survive XML end-of-line normalization
// (a parser reads "\r\n" and a lone "\r" as "\n"), and an SSE data
// line would end at it.
func appendEscaped(b []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ent = "&quot;"
		case '\r':
			ent = "&#13;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, ent...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// Unmarshal parses an XML document produced by this package (or any
// simple well-formed XML without CDATA). It uses a real XML decoder,
// not the HTML tokenizer: output-side element names are not limited to
// the HTML name alphabet (NITF uses dotted names like <date.issue>),
// and a restore round trip must preserve them exactly.
func Unmarshal(src string) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	root := &Node{} // synthetic container
	stack := []*Node{root}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlenc: %v", err)
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.CharData:
			if s := string(t); strings.TrimSpace(s) != "" {
				top.Children = append(top.Children, NewText(s))
			}
		case xml.StartElement:
			el := NewElement(rawName(t.Name))
			for _, a := range t.Attr {
				el.SetAttr(rawName(a.Name), a.Value)
			}
			top.Children = append(top.Children, el)
			stack = append(stack, el)
		case xml.EndElement:
			// The strict decoder guarantees matched pairs.
			stack = stack[:len(stack)-1]
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Skipped.
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("xmlenc: unclosed <%s>", stack[len(stack)-1].Name)
	}
	// Collapse single-text-child form into .Text.
	var norm func(n *Node)
	norm = func(n *Node) {
		if len(n.Children) == 1 && n.Children[0].Name == "" {
			n.Text = n.Children[0].Text
			n.Children = nil
			return
		}
		for _, c := range n.Children {
			norm(c)
		}
	}
	var doc *Node
	for _, c := range root.Children {
		if c.Name != "" {
			if doc != nil {
				return nil, fmt.Errorf("xmlenc: multiple document elements")
			}
			doc = c
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("xmlenc: no document element")
	}
	norm(doc)
	return doc, nil
}

// rawName restores the source spelling of a decoded name: the decoder
// splits prefixed names on ':' without resolving namespaces, so the
// prefix is carried verbatim in Space.
func rawName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
