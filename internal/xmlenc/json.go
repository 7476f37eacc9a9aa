package xmlenc

import (
	"sync"
	"unicode/utf8"
)

// The JSON projection of a Node is an object with the element name,
// the attributes as an object, the character data, and the child
// elements, in that key order; empty fields are omitted so leaf text
// elements render compactly. Attribute keys are sorted, and of
// duplicate names the last one wins. The writer appends straight from
// the tree in one pass and produces exactly what encoding/json's
// Marshal and MarshalIndent(v, "", "  ") produce for the struct
// projection
//
//	{Name string `json:"name,omitempty"`; Attrs map[string]string `json:"attrs,omitempty"`;
//	 Text string `json:"text,omitempty"`; Children []*node `json:"children,omitempty"`}
//
// including its HTML-safe string escaping.

// MarshalJSON renders the document as compact JSON. The shape is
// {"name": ..., "attrs": {...}, "text": ..., "children": [...]} with
// empty fields omitted. The error is always nil.
func MarshalJSON(n *Node) ([]byte, error) {
	return marshalJSON(func(b []byte) []byte { return appendJSON(b, n, -1) }), nil
}

// MarshalJSONIndent renders the document as two-space-indented JSON.
// The error is always nil.
func MarshalJSONIndent(n *Node) ([]byte, error) {
	return marshalJSON(func(b []byte) []byte { return appendJSON(b, n, 0) }), nil
}

// MarshalJSONList renders several documents as an indented JSON array
// (used by the server's history endpoint). The error is always nil.
func MarshalJSONList(docs []*Node) ([]byte, error) {
	return marshalJSON(func(b []byte) []byte { return appendJSONArray(b, docs, 0) }), nil
}

// jsonScratch recycles the buffers documents are rendered into: the
// result is copied out at its exact size, so a caller that keeps it
// (the delivery snapshot's JSON variant) holds no growth slack.
var jsonScratch = sync.Pool{New: func() any { return new([]byte) }}

func marshalJSON(render func([]byte) []byte) []byte {
	p := jsonScratch.Get().(*[]byte)
	b := render((*p)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*p = b
	jsonScratch.Put(p)
	return out
}

// appendJSON appends n's object. depth < 0 renders compact JSON;
// otherwise the object's opening brace sits at indentation depth.
func appendJSON(b []byte, n *Node, depth int) []byte {
	inner := -1
	if depth >= 0 {
		inner = depth + 1
	}
	b = append(b, '{')
	empty := true
	key := func(name string) {
		if !empty {
			b = append(b, ',')
		}
		empty = false
		b = appendNewline(b, inner)
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, '"', ':')
		if inner >= 0 {
			b = append(b, ' ')
		}
	}
	if n.Name != "" {
		key("name")
		b = appendJSONString(b, n.Name)
	}
	if len(n.Attrs) > 0 {
		key("attrs")
		b = appendJSONAttrs(b, n.Attrs, inner)
	}
	if n.Text != "" {
		key("text")
		b = appendJSONString(b, n.Text)
	}
	if len(n.Children) > 0 {
		key("children")
		b = appendJSONArray(b, n.Children, inner)
	}
	if !empty {
		b = appendNewline(b, depth)
	}
	return append(b, '}')
}

// appendJSONArray appends the nodes' objects as an array whose brackets
// sit at indentation depth (depth < 0: compact); an empty one is [].
func appendJSONArray(b []byte, nodes []*Node, depth int) []byte {
	elem := -1
	if depth >= 0 {
		elem = depth + 1
	}
	b = append(b, '[')
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNewline(b, elem)
		b = appendJSON(b, n, elem)
	}
	if len(nodes) > 0 {
		b = appendNewline(b, depth)
	}
	return append(b, ']')
}

// appendJSONAttrs appends the attributes as an object keyed by name in
// byte order, the last of duplicate names winning, as a Go map renders.
func appendJSONAttrs(b []byte, attrs []Attr, depth int) []byte {
	var small [8]Attr
	sorted := append(small[:0], attrs...)
	// Insertion sort is stable, so duplicates keep their order and the
	// last of each run is the one a map assignment would keep.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Name < sorted[j-1].Name; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	inner := -1
	if depth >= 0 {
		inner = depth + 1
	}
	b = append(b, '{')
	first := true
	for i, a := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Name == a.Name {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendNewline(b, inner)
		b = appendJSONString(b, a.Name)
		b = append(b, ':')
		if inner >= 0 {
			b = append(b, ' ')
		}
		b = appendJSONString(b, a.Value)
	}
	b = appendNewline(b, depth)
	return append(b, '}')
}

// appendNewline starts an indented line at depth; depth < 0 (compact)
// appends nothing.
func appendNewline(b []byte, depth int) []byte {
	if depth < 0 {
		return b
	}
	b = append(b, '\n')
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	return b
}

// appendJSONString appends s as a JSON string with encoding/json's
// HTML-safe escaping: " and \ backslashed, control characters as \b,
// \f, \n, \r, \t or \u00XX, < > & as \u003c \u003e \u0026, U+2028 and
// U+2029 as \u2028 and \u2029, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
