package xmlenc

import "bytes"

// Encoder is a stateful, splice-based variant of MarshalIndentBytes
// for callers that re-encode successive versions of a slowly-changing
// document — the delivery plane encodes one snapshot per published
// tick, and under the incremental transform most of the tree is the
// same frozen *Node pointers as the previous tick. The encoder keeps
// its previous output and, for each frozen subtree (keyed by node
// pointer and indentation depth, since the bytes embed the indent
// prefix), the [off,end) range of that output holding the subtree's
// encoding. A hit copies the range into the new output instead of
// walking the subtree again, so encode cost tracks the dirty region,
// and the entry moves to its new offset. The table holds no bytes of
// its own: the previous output is the snapshot the caller publishes,
// so each document is resident once.
//
// Ranges include the subtree's leading newline and indentation, which
// is deterministic for any node at depth >= 1 (the output is never
// empty there — the root's open tag precedes it); depth-0 nodes are
// never cached. Entries not touched by an encode are evicted when it
// finishes, so the table tracks the current document's frozen set.
//
// The bytes MarshalIndentBytes returns must never be modified: the
// next encode reads its splices from them. A caller that keeps a
// byte-identical earlier copy instead of the returned bytes (a
// suppressed no-op delivery) hands that copy to Rebase, so the
// discarded output is not pinned.
//
// An Encoder is not safe for concurrent use; the delivery plane owns
// one per pipeline and runs it under the publish mutex. Output is
// byte-identical to MarshalIndentBytes — frozen subtrees are immutable
// by contract, so a range can never go stale.
type Encoder struct {
	cache   map[*Node]*spliceEntry
	prev    []byte // the previous output: every entry is a range of it
	gen     uint64
	spliced uint64
	encoded uint64
}

// spliceEntry locates one subtree's encoding: out[off:end] of the
// output of encode gen, where out is the previous output (gen is the
// last encode) or the one being written (gen is the current encode:
// the subtree occurs again in the same document).
type spliceEntry struct {
	depth    int
	gen      uint64
	off, end int
}

// spliceEntryBytes approximates one table entry's heap cost: the map
// slot (key and value pointers) plus the entry itself.
const spliceEntryBytes = 16 + 32

// minCacheBytes is the smallest subtree encoding worth caching: below
// it the table entry plus copy costs more than re-walking the node.
const minCacheBytes = 32

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{cache: make(map[*Node]*spliceEntry)}
}

// MarshalIndentBytes encodes n exactly as the package-level
// MarshalIndentBytes does, splicing ranges of the previous output for
// frozen subtrees it already held. The returned bytes must not be
// modified (see Encoder).
func (e *Encoder) MarshalIndentBytes(n *Node) []byte {
	e.gen++
	out := make([]byte, 0, len(e.prev)+len(e.prev)/16)
	out = e.write(out, n, 0)
	out = append(out, '\n')
	if cap(out)-len(out) > len(out)/16+64 {
		// The document outgrew the previous one and append doubled the
		// buffer: trim it, as it is the published snapshot.
		out = append(make([]byte, 0, len(out)), out...)
	}
	for k, ent := range e.cache {
		if ent.gen != e.gen {
			delete(e.cache, k)
		}
	}
	e.prev = out
	e.encoded += uint64(len(out))
	return out
}

// Rebase points the table at published, which the caller keeps in
// place of the last output (a byte-identical result suppressed as a
// no-op), so the discarded output can be collected. When published
// differs from the last output the table is dropped instead.
func (e *Encoder) Rebase(published []byte) {
	if bytes.Equal(published, e.prev) {
		e.prev = published
		return
	}
	clear(e.cache)
	e.prev = nil
}

// SplicedBytes returns the cumulative number of output bytes that were
// spliced from the previous output rather than re-encoded. Surfaced as
// encode_spliced_bytes in the server's extraction stats.
func (e *Encoder) SplicedBytes() uint64 { return e.spliced }

// EncodedBytes returns the cumulative number of output bytes produced.
func (e *Encoder) EncodedBytes() uint64 { return e.encoded }

// CachedSubtrees returns the number of subtree ranges in the table.
func (e *Encoder) CachedSubtrees() int { return len(e.cache) }

// TableBytes approximates the table's heap footprint. The ranges
// address the previous output, which the caller owns and counts.
func (e *Encoder) TableBytes() int { return len(e.cache) * spliceEntryBytes }

// write detours through the table at frozen nodes. Missed frozen
// subtrees are encoded into place and their range recorded, recursing
// through e.write so nested frozen nodes (a reused child under a
// freshly rebuilt parent) still splice and are recorded at their own
// depth for future encodes. A nil encoder (the stateless Marshal
// functions) records nothing.
func (e *Encoder) write(b []byte, n *Node, depth int) []byte {
	if e == nil || !n.frozen || depth < 1 {
		return e.writeNode(b, n, depth)
	}
	ent := e.cache[n]
	if ent != nil && ent.depth == depth {
		src := e.prev
		if ent.gen == e.gen {
			src = b // a second occurrence in this document
		}
		start := len(b)
		b = append(b, src[ent.off:ent.end]...)
		e.spliced += uint64(ent.end - ent.off)
		if ent.gen != e.gen {
			ent.gen, ent.off, ent.end = e.gen, start, len(b)
		}
		return b
	}
	start := len(b)
	b = e.writeNode(b, n, depth)
	if len(b)-start >= minCacheBytes {
		if ent == nil {
			e.cache[n] = &spliceEntry{depth: depth, gen: e.gen, off: start, end: len(b)}
		} else {
			ent.depth, ent.gen, ent.off, ent.end = depth, e.gen, start, len(b)
		}
	}
	return b
}

// writeNode is the package's one serializer body: the stateless Marshal
// functions run it with a nil encoder, and depth -1 means no
// indentation at any level (Marshal).
func (e *Encoder) writeNode(b []byte, n *Node, depth int) []byte {
	if depth >= 0 {
		b = appendIndent(b, depth)
	}
	if n.Name == "" {
		return appendEscaped(b, n.Text, false)
	}
	b = append(b, '<')
	b = append(b, n.Name...)
	for _, a := range n.Attrs {
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, `="`...)
		b = appendEscaped(b, a.Value, true)
		b = append(b, '"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	b = appendEscaped(b, n.Text, false)
	child := depth
	if depth >= 0 {
		child = depth + 1
	}
	for _, c := range n.Children {
		b = e.write(b, c, child)
	}
	if len(n.Children) > 0 && depth >= 0 {
		b = appendIndent(b, depth)
	}
	b = append(b, "</"...)
	b = append(b, n.Name...)
	return append(b, '>')
}

// appendIndent starts a line at depth: a newline (unless the output is
// empty) and two spaces per level.
func appendIndent(b []byte, depth int) []byte {
	if len(b) > 0 {
		b = append(b, '\n')
	}
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	return b
}
