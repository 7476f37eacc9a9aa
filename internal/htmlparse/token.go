// Package htmlparse implements a self-contained, forgiving HTML parser
// producing dom.Tree parse trees.
//
// Web wrappers operate on parse trees of real-world HTML, which is rarely
// well-formed; like the parser embedded in the Lixto Visual Wrapper, this
// one therefore repairs common malformations: unclosed <li>/<td>/<tr>/<p>
// elements, stray end tags, void elements without slashes, unquoted
// attribute values, and undeclared entities. It intentionally implements
// a pragmatic subset of the HTML5 algorithm — enough to parse everything
// the simulated web of internal/web produces plus the usual hand-written
// HTML idioms — rather than the full specification.
package htmlparse

import (
	"strings"

	"repro/internal/dom"
)

// indexEndTag returns the offset in s of the first "</name" (name in
// lower case), compared ASCII case-insensitively in place, or -1. It
// ends the content of the raw-text elements.
func indexEndTag(s, name string) int {
	for i := 0; ; i += 2 {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+2:]; len(rest) >= len(name) && equalFoldASCII(rest[:len(name)], name) {
			return i
		}
	}
}

// equalFoldASCII reports whether s, with A-Z folded to a-z, equals the
// lower-case string lower of the same length.
func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// lexAttrs lexes the attribute list of a start tag of s starting at
// position j, appending to attrs (which the builder reuses across
// tags). Names and values are substrings of s at recorded offsets; only
// a lower-cased name or a value with a character reference to decode is
// a string of its own. It returns the list, whether the
// tag is self-closing, and the position just past the closing '>'.
func lexAttrs(s string, j int, attrs []dom.SourceAttr) ([]dom.SourceAttr, bool, int) {
	selfClose := false
	for j < len(s) {
		// Skip whitespace.
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j >= len(s) {
			break
		}
		if s[j] == '>' {
			return attrs, selfClose, j + 1
		}
		if s[j] == '/' {
			selfClose = true
			j++
			continue
		}
		// Attribute name; with no '=' after it, the empty value.
		a := dom.SourceAttr{NameOff: j, ValOff: -1}
		a.Name, j = scanName(s, j, cAttrName)
		if a.Name == "" {
			j++
			continue
		}
		if a.Name != s[a.NameOff:j] {
			a.NameOff = -1 // lower-cased
		}
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j < len(s) && s[j] == '=' {
			j++
			for j < len(s) && isSpace(s[j]) {
				j++
			}
			// amp notes a '&' in the value: most have none, and then the
			// value is the source bytes with no decoder call.
			amp := false
			if j < len(s) && (s[j] == '"' || s[j] == '\'') {
				q := s[j]
				j++
				a.ValOff = j
				for ; j < len(s) && s[j] != q; j++ {
					amp = amp || s[j] == '&'
				}
				a.Value = s[a.ValOff:j]
				if j < len(s) {
					j++
				}
			} else {
				a.ValOff = j
				for ; j < len(s) && !isSpace(s[j]) && s[j] != '>'; j++ {
					amp = amp || s[j] == '&'
				}
				a.Value = s[a.ValOff:j]
			}
			if amp {
				a.Value, a.ValOff = DecodeEntities(a.Value), -1
			}
		}
		attrs = append(attrs, a)
	}
	return attrs, selfClose, len(s)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

// isRawText reports whether the element's content is raw text (no markup
// recognized inside).
func isRawText(name string) bool {
	switch name {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}

// entities is the set of named character references the decoder knows.
// Real-world wrapping needs only the common ones; numeric references are
// handled generically.
var entities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"hellip": '…', "mdash": '—', "ndash": '–', "laquo": '«', "raquo": '»',
	"euro": '€', "pound": '£', "yen": '¥', "cent": '¢', "sect": '§',
	"deg": '°', "plusmn": '±', "middot": '·', "times": '×', "divide": '÷',
	"lsquo": '‘', "rsquo": '’', "ldquo": '“', "rdquo": '”',
	"auml": 'ä', "ouml": 'ö', "uuml": 'ü', "Auml": 'Ä', "Ouml": 'Ö', "Uuml": 'Ü', "szlig": 'ß',
	"eacute": 'é', "egrave": 'è', "agrave": 'à', "ccedil": 'ç',
}

// DecodeEntities replaces character references (&amp;, &#65;, &#x41;)
// with the characters they denote. Unknown references are left verbatim,
// matching browser behaviour.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if r, ok := decodeRef(ref); ok {
			b.WriteRune(r)
			i += semi + 1
		} else {
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func decodeRef(ref string) (rune, bool) {
	if ref == "" {
		return 0, false
	}
	if ref[0] == '#' {
		num := ref[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		var v int64
		for _, c := range num {
			var d int64
			switch {
			case c >= '0' && c <= '9':
				d = int64(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = int64(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = int64(c-'A') + 10
			default:
				return 0, false
			}
			v = v*int64(base) + d
			if v > 0x10FFFF {
				return 0, false
			}
		}
		if v == 0 {
			return 0, false
		}
		return rune(v), true
	}
	r, ok := entities[ref]
	return r, ok
}

// EscapeText escapes character data for inclusion in HTML/XML text
// content.
func EscapeText(s string) string { return escape(s, false) }

// EscapeAttr escapes an attribute value for double-quoted inclusion.
func EscapeAttr(s string) string { return escape(s, true) }

// escape replaces & < > (and " when quot is set) by their entities. The
// serializers call it on every text node and almost none needs
// escaping, so the input itself is returned when a scan finds nothing
// to replace; otherwise the output is built once.
func escape(s string, quot bool) string {
	var b strings.Builder
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
			if !quot {
				continue
			}
			ent = "&quot;"
		default:
			continue
		}
		if b.Len() == 0 {
			b.Grow(len(s) + 16)
		}
		b.WriteString(s[last:i])
		b.WriteString(ent)
		last = i + 1
	}
	if b.Len() == 0 {
		return s
	}
	b.WriteString(s[last:])
	return b.String()
}
