package dom

// This file implements the binary firstchild/nextsibling view of an
// unranked tree shown in Figure 1 of the paper: every unranked ordered
// tree is equivalently described by the two partial functions
// firstchild and nextsibling, each node having at most one of each and
// being the image of at most one node under each (the bidirectional
// functional dependencies on which Theorem 2.4 rests).
//
// The encoding is also the carrier for the bottom-up tree automata of
// internal/automata (MSO on unranked trees = MSO on their binary
// encodings).

// Edge is a single firstchild or nextsibling fact of the binary view.
type Edge struct {
	From, To NodeID
	// FirstChild is true for a firstchild edge and false for a
	// nextsibling edge.
	FirstChild bool
}

// BinaryEncoding returns all firstchild and nextsibling edges of the
// tree, in document order of their source node. Together with the unary
// relations (root, leaf, lastsibling, label_a) these determine the tree
// up to isomorphism; DecodeBinary inverts the operation.
func (t *Tree) BinaryEncoding() []Edge {
	var edges []Edge
	for n := 0; n < t.Size(); n++ {
		id := NodeID(n)
		if c := t.firstChild[id]; c != Nil {
			edges = append(edges, Edge{From: id, To: c, FirstChild: true})
		}
		if s := t.nextSibling[id]; s != Nil {
			edges = append(edges, Edge{From: id, To: s, FirstChild: false})
		}
	}
	return edges
}

// NodeInfo is the unary part of the binary encoding of one node.
type NodeInfo struct {
	ID    NodeID
	Kind  Kind
	Label string
	Text  string
	Attrs []Attr
}

// EncodeBinary returns the complete binary-encoded form of the tree:
// its node table and edge list. This realizes Figure 1(b).
func (t *Tree) EncodeBinary() ([]NodeInfo, []Edge) {
	nodes := make([]NodeInfo, t.Size())
	for n := 0; n < t.Size(); n++ {
		id := NodeID(n)
		nodes[n] = NodeInfo{ID: id, Kind: t.kind[id], Label: t.Label(id), Text: t.Text(id), Attrs: t.Attrs(id)}
	}
	return nodes, t.BinaryEncoding()
}

// DecodeBinary reconstructs an unranked tree from its binary encoding.
// The node at index 0 must be the root. It panics on malformed input
// (dangling edges); callers produce encodings with EncodeBinary.
func DecodeBinary(nodes []NodeInfo, edges []Edge) *Tree {
	if len(nodes) == 0 {
		return New(0)
	}
	fc := make(map[NodeID]NodeID)
	ns := make(map[NodeID]NodeID)
	for _, e := range edges {
		if e.FirstChild {
			fc[e.From] = e.To
		} else {
			ns[e.From] = e.To
		}
	}
	info := make(map[NodeID]NodeInfo, len(nodes))
	for _, n := range nodes {
		info[n.ID] = n
	}
	t := New(len(nodes))
	var build func(old NodeID, parent NodeID)
	build = func(old NodeID, parent NodeID) {
		in, ok := info[old]
		if !ok {
			panic("dom: DecodeBinary: dangling edge")
		}
		var id NodeID
		switch {
		case parent == Nil:
			id = t.AddRoot(in.Label)
		case in.Kind == Text:
			id = t.AppendText(parent, in.Text)
		case in.Kind == Comment:
			id = t.AppendComment(parent, in.Text)
		default:
			id = t.AppendChild(parent, in.Label)
		}
		for _, a := range in.Attrs {
			t.SetAttr(id, a.Name, a.Value)
		}
		if c, ok := fc[old]; ok {
			// Walk the child chain via nextsibling.
			for cur := c; ; {
				build(cur, id)
				nxt, ok := ns[cur]
				if !ok {
					break
				}
				cur = nxt
			}
		}
	}
	build(nodes[0].ID, Nil)
	return t
}
