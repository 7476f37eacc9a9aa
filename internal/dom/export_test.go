package dom

import "repro/internal/pool"

// PoolDraws returns how many column sets builds have taken from the
// pool, over the whole process.
func PoolDraws() int64 { return poolDraws.Load() }

// PoisonPool puts k column sets into the pool for each of the size
// class of trees of nodes nodes and the two above it (a build's hint
// may exceed its node count), attrs attribute entries each, every byte
// of them 0xFF and the index and subtree hashes present: a build that
// draws one and reads what it did not write reads garbage instead of
// the zeros a fresh allocation holds.
func PoisonPool(nodes, attrs, k int) {
	_, first := pool.SizeClass(nodes)
	for class := first; class <= first+2; class++ {
		size := pool.ClassSize(class)
		for range k {
			c := &columns{
				kind:    make([]Kind, size),
				labelID: make([]LabelID, size),
				payload: make([]span, size),
				ids:     make([]NodeID, 5*size),
				idx:     make([]int32, 3*size),
				subHash: make([]uint64, size),
				attrTab: make([]attrEntry, 2*attrs),
			}
			for i := range c.kind {
				c.kind[i] = 0xFF
				c.labelID[i] = -1
				c.payload[i] = span{^uint32(0), ^uint32(0)}
				c.subHash[i] = ^uint64(0)
			}
			for i := range c.ids {
				c.ids[i] = -1
			}
			for i := range c.idx {
				c.idx[i] = -1
			}
			for i := range c.attrTab {
				c.attrTab[i] = attrEntry{span{^uint32(0), ^uint32(0)}, span{^uint32(0), ^uint32(0)}}
			}
			pools.Put(class, c)
		}
	}
}

// SpliceWork returns the bits set node by node into label and kind
// bitsets and the hashMix calls splices made, over the whole process.
func SpliceWork() (bits, mixes int64) { return bitsSet.Load(), spliceMixes.Load() }
