package xmlenc

import (
	"bytes"

	"repro/internal/htmlparse"
)

// Encoder is a stateful, splice-based variant of MarshalIndentBytes
// for callers that re-encode successive versions of a slowly-changing
// document — the delivery plane encodes one snapshot per published
// tick, and under the incremental transform most of the tree is the
// same frozen *Node pointers as the previous tick. The encoder caches
// the encoded byte range of each frozen subtree (keyed by node pointer
// and indentation depth, since the bytes embed the indent prefix) and
// splices the cached range into the output buffer instead of walking
// the subtree again, so encode cost tracks the dirty region.
//
// Cached bytes include the subtree's leading newline and indentation,
// which is deterministic for any node at depth >= 1 (the buffer is
// never empty there — the root's open tag precedes it); depth-0 nodes
// are never cached. Entries not touched by an encode are evicted when
// it finishes, so the cache tracks the current document's frozen set
// and removed subtrees do not pin memory.
//
// An Encoder is not safe for concurrent use; the delivery plane owns
// one per pipeline and runs it under the publish mutex. Output is
// byte-identical to MarshalIndentBytes — frozen subtrees are immutable
// by contract, so a cached range can never go stale.
type Encoder struct {
	cache   map[*Node]*encEntry
	gen     uint64
	last    int // length of the previous encode: the next buffer's size
	spliced uint64
	encoded uint64
}

// encEntry is one cached subtree encoding.
type encEntry struct {
	depth int
	gen   uint64
	bytes []byte
}

// minCacheBytes is the smallest subtree encoding worth caching: below
// it the map entry plus copy costs more than re-walking the node.
const minCacheBytes = 32

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{cache: make(map[*Node]*encEntry)}
}

// MarshalIndentBytes encodes n exactly as the package-level
// MarshalIndentBytes does, reusing cached byte ranges for frozen
// subtrees seen in earlier encodes.
func (e *Encoder) MarshalIndentBytes(n *Node) []byte {
	e.gen++
	var b bytes.Buffer
	b.Grow(e.last + e.last/16)
	e.write(&b, n, 0)
	b.WriteByte('\n')
	e.last = b.Len()
	for k, ent := range e.cache {
		if ent.gen != e.gen {
			delete(e.cache, k)
		}
	}
	e.encoded += uint64(b.Len())
	return b.Bytes()
}

// SplicedBytes returns the cumulative number of output bytes that were
// spliced from the cache rather than re-encoded. Surfaced as
// encode_spliced_bytes in the server's extraction stats.
func (e *Encoder) SplicedBytes() uint64 { return e.spliced }

// EncodedBytes returns the cumulative number of output bytes produced.
func (e *Encoder) EncodedBytes() uint64 { return e.encoded }

// CachedSubtrees returns the number of subtree encodings currently
// cached.
func (e *Encoder) CachedSubtrees() int { return len(e.cache) }

// write detours through the cache at frozen nodes. Cache-miss frozen
// subtrees are encoded into place and the produced range is copied into
// the cache, recursing through e.write so nested frozen nodes (a reused
// child under a freshly rebuilt parent) still splice and are cached at
// their own depth for future ticks. A nil encoder (the stateless
// Marshal functions) caches nothing.
func (e *Encoder) write(b *bytes.Buffer, n *Node, depth int) {
	if e != nil && n.frozen && depth >= 1 {
		if ent, ok := e.cache[n]; ok && ent.depth == depth {
			ent.gen = e.gen
			b.Write(ent.bytes)
			e.spliced += uint64(len(ent.bytes))
			return
		}
		start := b.Len()
		e.writeNode(b, n, depth)
		if seg := b.Bytes()[start:]; len(seg) >= minCacheBytes {
			e.cache[n] = &encEntry{depth: depth, gen: e.gen, bytes: append([]byte(nil), seg...)}
		}
		return
	}
	e.writeNode(b, n, depth)
}

// writeNode is the package's one serializer body: the stateless Marshal
// functions run it with a nil encoder, and depth -1 means no
// indentation at any level (Marshal).
func (e *Encoder) writeNode(b *bytes.Buffer, n *Node, depth int) {
	indent := func() {
		if depth < 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
	}
	indent()
	if n.Name == "" {
		b.WriteString(htmlparse.EscapeText(n.Text))
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		b.WriteString(htmlparse.EscapeAttr(a.Value))
		b.WriteByte('"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	b.WriteString(htmlparse.EscapeText(n.Text))
	child := depth
	if depth >= 0 {
		child = depth + 1
	}
	for _, c := range n.Children {
		e.write(b, c, child)
	}
	if len(n.Children) > 0 {
		indent()
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}
