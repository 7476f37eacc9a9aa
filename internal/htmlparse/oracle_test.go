package htmlparse

// The oracle: the seed tokenizer and token-based parser, retained
// verbatim as the reference implementation of Parse. It lives in a test
// file because nothing ships it: FuzzParseOracle and the differential
// tests assert that the fused builder behind Parse (builder.go)
// produces identical trees. New parsing behaviour must change both
// implementations. The repair-rule maps it reads (parser.go) stay in
// the package: the builder's tagRules table is derived from them.

import (
	"strings"

	"repro/internal/dom"
)

// TokenType enumerates the lexical token classes of HTML.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <name attr=...>.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingToken is <name .../>.
	SelfClosingToken
	// CommentToken is <!-- ... -->.
	CommentToken
	// DoctypeToken is <!DOCTYPE ...>.
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start"
	case EndTagToken:
		return "end"
	case SelfClosingToken:
		return "selfclosing"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	}
	return "unknown"
}

// Attr is a lexical attribute of a start tag.
type Attr = dom.Attr

// Token is one lexical token. For tag tokens, Data is the lower-cased tag
// name; for text and comments it is the (entity-decoded) character data.
type Token struct {
	Type  TokenType
	Data  string
	Attrs []Attr
}

// Tokenizer splits HTML source into tokens. It never fails: malformed
// input degrades to text tokens.
type Tokenizer struct {
	src string
	pos int
	// rawUntil, when non-empty, makes the tokenizer treat everything up
	// to the matching end tag as raw text (script/style contents).
	rawUntil string
	// NoRawText disables the HTML raw-text elements (script, style,
	// title, textarea); set by XML consumers, where those names are
	// ordinary elements.
	NoRawText bool
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token and false when the input is exhausted.
// The token's attribute slice is freshly allocated and owned by the
// caller.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawUntil != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.tag(); ok {
			return tok, true
		}
		// A lone '<' that does not begin a tag: emit it as text.
	}
	return z.text(), true
}

func (z *Tokenizer) rawText() Token {
	idx := indexEndTag(z.src[z.pos:], z.rawUntil)
	var data string
	if idx < 0 {
		data = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		data = z.src[z.pos : z.pos+idx]
		z.pos += idx
	}
	z.rawUntil = ""
	return Token{Type: TextToken, Data: data}
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) {
		if z.src[z.pos] == '<' && z.pos > start {
			break
		}
		if z.src[z.pos] == '<' && z.pos == start {
			// Starts with '<' but tag() declined: consume the character.
			z.pos++
			continue
		}
		z.pos++
	}
	return Token{Type: TextToken, Data: DecodeEntities(z.src[start:z.pos])}
}

// tag attempts to lex a tag at z.pos (which is '<'). It returns ok=false
// if the input cannot be a tag, leaving pos unchanged.
func (z *Tokenizer) tag() (Token, bool) {
	s := z.src
	i := z.pos + 1
	if i >= len(s) {
		return Token{}, false
	}
	switch {
	case strings.HasPrefix(s[i:], "!--"):
		end := strings.Index(s[i+3:], "-->")
		var data string
		if end < 0 {
			data = s[i+3:]
			z.pos = len(s)
		} else {
			data = s[i+3 : i+3+end]
			z.pos = i + 3 + end + 3
		}
		return Token{Type: CommentToken, Data: data}, true
	case s[i] == '!' || s[i] == '?':
		// Doctype or processing instruction.
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			z.pos = len(s)
			return Token{Type: DoctypeToken, Data: s[i:]}, true
		}
		z.pos = i + end + 1
		return Token{Type: DoctypeToken, Data: s[i : i+end]}, true
	case s[i] == '/':
		j := i + 1
		start := j
		for j < len(s) && isNameChar(s[j]) {
			j++
		}
		if j == start {
			return Token{}, false
		}
		name := strings.ToLower(s[start:j])
		// Skip to '>'.
		for j < len(s) && s[j] != '>' {
			j++
		}
		if j < len(s) {
			j++
		}
		z.pos = j
		return Token{Type: EndTagToken, Data: name}, true
	case isNameStart(s[i]):
		j := i
		for j < len(s) && isNameChar(s[j]) {
			j++
		}
		name := strings.ToLower(s[i:j])
		lexed, selfClose, newPos := lexAttrs(s, j, nil)
		var attrs []Attr
		for _, a := range lexed {
			attrs = append(attrs, Attr{Name: a.Name, Value: a.Value})
		}
		z.pos = newPos
		typ := StartTagToken
		if selfClose {
			typ = SelfClosingToken
		}
		if typ == StartTagToken && !z.NoRawText && isRawText(name) {
			z.rawUntil = name
		}
		return Token{Type: typ, Data: name, Attrs: attrs}, true
	}
	return Token{}, false
}

// ParseLegacy is the seed token-based parser.
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
