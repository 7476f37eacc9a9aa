package htmlparse

import (
	"strings"
	"unicode/utf8"

	"repro/internal/dom"
)

// tagCode is a tag name classified once, so that every repair rule of
// the tree builder is an integer test instead of a string-keyed map
// lookup. Names without a rule are tagOther.
type tagCode uint8

const (
	tagOther tagCode = iota
	tagHTML
	tagHead
	tagBody
	// Void elements.
	tagArea
	tagBase
	tagBr
	tagCol
	tagEmbed
	tagHr
	tagImg
	tagInput
	tagLink
	tagMeta
	tagParam
	tagSource
	tagTrack
	tagWbr
	// Elements that implicitly close, or are implicitly closed by, others.
	tagLi
	tagTd
	tagTh
	tagTr
	tagThead
	tagTbody
	tagTfoot
	tagP
	tagOption
	tagDt
	tagDd
	// Scope barriers of implicit closing.
	tagTable
	tagDiv
	tagUl
	tagOl
	tagSelect
	tagDl
	// Raw-text and head elements.
	tagTitle
	tagStyle
	tagScript
	tagTextarea
	numTags
)

// tagCodeOf classifies a lower-case tag name.
func tagCodeOf(name string) tagCode {
	switch name {
	case "html":
		return tagHTML
	case "head":
		return tagHead
	case "body":
		return tagBody
	case "area":
		return tagArea
	case "base":
		return tagBase
	case "br":
		return tagBr
	case "col":
		return tagCol
	case "embed":
		return tagEmbed
	case "hr":
		return tagHr
	case "img":
		return tagImg
	case "input":
		return tagInput
	case "link":
		return tagLink
	case "meta":
		return tagMeta
	case "param":
		return tagParam
	case "source":
		return tagSource
	case "track":
		return tagTrack
	case "wbr":
		return tagWbr
	case "li":
		return tagLi
	case "td":
		return tagTd
	case "th":
		return tagTh
	case "tr":
		return tagTr
	case "thead":
		return tagThead
	case "tbody":
		return tagTbody
	case "tfoot":
		return tagTfoot
	case "p":
		return tagP
	case "option":
		return tagOption
	case "dt":
		return tagDt
	case "dd":
		return tagDd
	case "table":
		return tagTable
	case "div":
		return tagDiv
	case "ul":
		return tagUl
	case "ol":
		return tagOl
	case "select":
		return tagSelect
	case "dl":
		return tagDl
	case "title":
		return tagTitle
	case "style":
		return tagStyle
	case "script":
		return tagScript
	case "textarea":
		return tagTextarea
	}
	return tagOther
}

// tagRule is the precomputed repair behaviour of one tag code.
type tagRule struct {
	void, head, rawText bool
	// closes is the set of open elements a start tag of this code
	// implicitly closes; closedBy is this code's own bit in those sets
	// (0 when nothing closes it).
	closes, closedBy uint16
}

// tagRules is derived from the rule maps the oracle (ParseLegacy, in
// oracle_test.go) reads, so the two cannot drift apart: a name added to
// a map without a code of its own stops the package from initializing.
var tagRules = func() (rules [numTags]tagRule) {
	code := func(name string) tagCode {
		c := tagCodeOf(name)
		if c == tagOther {
			panic("htmlparse: tag " + name + " has a repair rule but no tagCode")
		}
		return c
	}
	for name := range voidElements {
		rules[code(name)].void = true
	}
	for name := range headElements {
		rules[code(name)].head = true
	}
	for _, name := range []string{"script", "style", "textarea", "title"} {
		if !isRawText(name) {
			panic("htmlparse: " + name + " is not a raw-text element")
		}
		rules[code(name)].rawText = true
	}
	next := uint16(1)
	for name, closed := range autoClose {
		for _, c := range closed {
			r := &rules[code(c)]
			if r.closedBy == 0 {
				// A barrier never matches a close set, so the builder's one
				// mask test also stops at barriers; one that did would need
				// the separate check back. next wraps to 0 past 16 bits.
				if closeBarrier[c] || next == 0 {
					panic("htmlparse: auto-close set of " + name + " does not fit the builder's mask")
				}
				r.closedBy, next = next, next<<1
			}
			rules[code(name)].closes |= r.closedBy
		}
	}
	for name := range closeBarrier {
		code(name)
	}
	return rules
}()

// openElem is one entry of the builder's stack of open elements.
type openElem struct {
	node dom.NodeID
	code tagCode
	name string // compared for tagOther only, where the code does not identify the tag
}

// builder is the fused scanner and tree builder behind Parse: it reads
// tags straight out of the source and appends nodes to an arena-sized
// dom.Tree as offsets into that source, with no token values and no
// substrings in between. The repair rules and the resulting tree are
// the oracle's; the differential tests and FuzzParseOracle pin that.
type builder struct {
	t                *dom.Tree
	root, head, body dom.NodeID
	stack            []openElem
	// elemLabel and leafLabel memoise the tree's symbol (plus one: zero
	// is "not interned yet") per tag code and per leaf kind, so only the
	// first node of each goes through the tree's label map.
	elemLabel [numTags]dom.LabelID
	leafLabel [dom.Comment + 1]dom.LabelID
	// attrs is the attribute list of the tag being read, reused across
	// tags; the tree copies it into its own attribute table.
	attrs []dom.SourceAttr
}

// Parse parses HTML source into a dom.Tree. The returned tree always has
// an "html" root with a "body" child (synthesized when missing), because
// the Elog programs of the paper navigate from the body node (Figure 5).
// Parse never fails; arbitrarily broken input yields a best-effort tree,
// identical to the one the test oracle builds token by token. The tree
// refers to src instead of copying out of it, and so keeps it alive.
//
// The build is deferred (dom.NewDeferred): Parse itself only hashes src
// for the tree's ContentKey, and the tree is built on its first use —
// any accessor, Warm call or mutator — exactly once, even when several
// goroutines make that first call at once. A poll that finds the key
// unchanged never builds the tree.
func Parse(src string) *dom.Tree { return dom.NewDeferred(src, build) }

// build is Parse's deferred build: one pass of the fused builder.
func build(src string) *dom.Tree {
	b := builder{
		t:    dom.NewFromSource(src, nodeHint(src), strings.Count(src, "=")), // an attribute with a value per '=', at most
		root: dom.Nil, head: dom.Nil, body: dom.Nil,
		stack: make([]openElem, 0, 16), attrs: make([]dom.SourceAttr, 0, 8),
	}
	for pos := 0; pos < len(src); {
		if src[pos] == '<' {
			if next := b.markup(src, pos); next > pos {
				pos = next
				continue
			}
			// A lone '<' that does not begin a tag is text.
		}
		// A text run ends before the next '<'. Runs between tags are
		// mostly a few bytes long, so one plain loop that also notes
		// whether there is any '&' to decode beats two calls per run.
		end, amp := pos+1, src[pos] == '&'
		for ; end < len(src) && src[end] != '<'; end++ {
			amp = amp || src[end] == '&'
		}
		b.text(src, pos, end, amp)
		pos = end
	}
	// Empty and head-only documents still get their body.
	b.ensureBody()
	return b.t
}

// nodeHint sizes the tree's arena: one node per start tag (or comment)
// and one per text run, which is exact for markup without inter-tag
// whitespace. Whitespace between tags counts as text runs that will be
// dropped, so the hint is capped at one node per '<' — end tags
// included — which such markup stays under. The arena is what a tree
// retains for as long as an instance base or a cache refers to it, so
// a tight hint is worth this pass over the source.
func nodeHint(src string) int {
	tags, nodes := 0, 0
	for i := 0; ; i++ {
		j := strings.IndexByte(src[i:], '<')
		if j < 0 {
			return min(nodes, tags) + 4 // html, head, body and a trailing text run
		}
		i += j
		tags++
		if i > 0 && src[i-1] != '>' {
			nodes++ // a text run ends here
		}
		if i+1 < len(src) && src[i+1] != '/' {
			nodes++
		}
	}
}

// markup reads the tag, comment or declaration at s[pos] == '<' and
// returns the position after it, or pos when s[pos:] is not markup.
func (b *builder) markup(s string, pos int) int {
	i := pos + 1
	if i >= len(s) {
		return pos
	}
	switch c := s[i]; {
	case c == '/':
		name, j := scanName(s, i+1, cTagName)
		if j == i+1 {
			return pos
		}
		b.endTag(tagCodeOf(name), name)
		if k := strings.IndexByte(s[j:], '>'); k >= 0 {
			return j + k + 1
		}
		return len(s)
	case isNameStart(c):
		name, j := scanName(s, i, cTagName)
		code := tagCodeOf(name)
		var selfClose bool
		b.attrs, selfClose, j = lexAttrs(s, j, b.attrs[:0])
		b.startTag(code, name, selfClose)
		if tagRules[code].rawText && !selfClose && j < len(s) {
			// Everything up to the matching end tag is one text node.
			end := len(s)
			if k := indexEndTag(s[j:], name); k >= 0 {
				end = j + k
			}
			b.text(s, j, end, false)
			j = end
		}
		return j
	case c == '!' && strings.HasPrefix(s[i:], "!--"):
		i += 3
		end := strings.Index(s[i:], "-->")
		if end < 0 {
			b.leaf(dom.Comment, i, len(s))
			return len(s)
		}
		b.leaf(dom.Comment, i, i+end)
		return i + end + 3
	case c == '!' || c == '?':
		// Doctype or processing instruction, ignored: the parse tree of
		// the paper starts at html.
		if end := strings.IndexByte(s[i:], '>'); end >= 0 {
			return i + end + 1
		}
		return len(s)
	}
	return pos
}

// Byte classes of the name scanners, one table load per source byte.
const (
	cTagName  uint8 = 1 << iota // continues a tag name
	cAttrName                   // continues an attribute name
	cUpper                      // makes a name need strings.ToLower
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		b := byte(c)
		if isNameChar(b) {
			t[c] |= cTagName
		}
		if !isSpace(b) && b != '=' && b != '>' && b != '/' {
			t[c] |= cAttrName
		}
		if b >= 'A' && b <= 'Z' || b >= utf8.RuneSelf {
			t[c] |= cUpper
		}
	}
	return t
}()

// scanName scans the run of bytes of the given class at s[i:] and
// returns it lower-cased, with the position after it. A run that is
// lower case already — what real markup almost always is — is returned
// as the source bytes themselves.
func scanName(s string, i int, class uint8) (string, int) {
	j, seen := i, uint8(0)
	for ; j < len(s) && byteClass[s[j]]&class != 0; j++ {
		seen |= byteClass[s[j]]
	}
	if seen&cUpper != 0 {
		return strings.ToLower(s[i:j]), j
	}
	return s[i:j], j
}

// blank reports strings.TrimSpace(s) == "" without scanning past the
// first byte that settles it.
func blank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c >= '\t' && c <= '\r':
		case c < utf8.RuneSelf:
			return false
		default:
			return strings.TrimSpace(s[i:]) == "" // U+0085, U+00A0, …
		}
	}
	return true
}

func (b *builder) push(n dom.NodeID, code tagCode, name string) {
	b.stack = append(b.stack, openElem{n, code, name})
}

func (b *builder) ensureRoot() {
	if b.root == dom.Nil {
		b.root = b.t.AddRoot("html")
		b.push(b.root, tagHTML, "")
	}
}

func (b *builder) ensureHead() dom.NodeID {
	b.ensureRoot()
	if b.head == dom.Nil {
		b.head = b.t.AppendChild(b.root, "head")
		b.push(b.head, tagHead, "")
	}
	return b.head
}

func (b *builder) ensureBody() dom.NodeID {
	b.ensureRoot()
	if b.body == dom.Nil {
		b.body = b.t.AppendChild(b.root, "body")
		b.push(b.body, tagBody, "")
	}
	return b.body
}

// text appends the text node s[off:end], with its character references
// decoded when amp is set, unless it is blank: inter-tag whitespace is
// not meaningful for wrapping and would bloat every pattern path, so it
// is dropped like the Lixto preprocessor does.
func (b *builder) text(s string, off, end int, amp bool) {
	data := s[off:end]
	if amp {
		data = DecodeEntities(data)
	}
	switch {
	case blank(data):
	case amp:
		b.t.AppendText(b.leafParent(), data) // a string of its own; rare enough for the label lookup
	default:
		b.leaf(dom.Text, off, end)
	}
}

// leafParent is where a text or comment node goes: the innermost open
// element; directly under html it belongs in body.
func (b *builder) leafParent() dom.NodeID {
	if n := len(b.stack); n > 0 && b.stack[n-1].code != tagHTML {
		return b.stack[n-1].node
	}
	return b.ensureBody()
}

// leaf appends the source bytes [off, end) as a text or comment node.
func (b *builder) leaf(k dom.Kind, off, end int) {
	parent := b.leafParent()
	if b.leafLabel[k] == 0 {
		b.leafLabel[k] = 1 + b.t.Intern([...]string{dom.Text: dom.TextLabel, dom.Comment: dom.CommentLabel}[k])
	}
	b.t.AppendSourceLeaf(parent, k, b.leafLabel[k]-1, off, end)
}

func (b *builder) startTag(code tagCode, name string, selfClose bool) {
	switch code {
	case tagHTML:
		if b.root == dom.Nil {
			b.root = b.t.AppendSourceElement(dom.Nil, b.t.Intern("html"), b.attrs)
			b.push(b.root, tagHTML, "")
		}
		return
	case tagHead:
		b.ensureHead()
		return
	case tagBody:
		b.ensureRoot()
		if b.body == dom.Nil {
			// Close an open head.
			for n := len(b.stack); n > 0 && b.stack[n-1].code != tagHTML; n-- {
				b.stack = b.stack[:n-1]
			}
			b.body = b.t.AppendSourceElement(b.root, b.t.Intern("body"), b.attrs)
			b.push(b.body, tagBody, "")
		}
		return
	}
	rule := &tagRules[code]
	// Implicit closing: <li> closes an open <li>, <tr> an open <td>, …
	for n := len(b.stack); n > 0 && rule.closes&tagRules[b.stack[n-1].code].closedBy != 0; n-- {
		b.stack = b.stack[:n-1]
	}
	var parent dom.NodeID
	if n := len(b.stack); n > 0 && b.stack[n-1].code != tagHTML {
		parent = b.stack[n-1].node
	} else if n > 0 && rule.head && b.body == dom.Nil {
		// Directly under html and before any body content.
		parent = b.ensureHead()
	} else {
		parent = b.ensureBody()
	}
	id := b.elemLabel[code] - 1
	if id < 0 {
		id = b.t.Intern(name)
		if code != tagOther {
			b.elemLabel[code] = id + 1
		}
	}
	node := b.t.AppendSourceElement(parent, id, b.attrs)
	if !selfClose && !rule.void {
		b.push(node, code, name)
	}
}

func (b *builder) endTag(code tagCode, name string) {
	if tagRules[code].void {
		return
	}
	// Find the matching open element; a stray end tag is ignored.
	i := len(b.stack) - 1
	for ; i >= 0; i-- {
		if e := &b.stack[i]; e.code == code && (code != tagOther || e.name == name) {
			break
		}
	}
	if i < 0 {
		return
	}
	b.stack = b.stack[:i]
	if code == tagHTML || code == tagBody {
		// html is never popped, and body stays conceptually open for
		// trailing content: what follows lands under html again.
		b.push(b.root, tagHTML, "")
	}
}
