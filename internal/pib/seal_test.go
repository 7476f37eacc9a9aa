package pib

import (
	"testing"
	"unsafe"
)

// keyBase interns for key below: instKeys are comparable within one
// base, whose ids for patterns and URLs they hold.
var keyBase = NewBase()

// key is the instance's dedup key in keyBase, for
// TestKeyPreservesTextIdentity, which compares keys pairwise.
func (in *Instance) key() instKey { return keyBase.key(in) }

// TestSealedBaseBudget, sizes: what an instance and its dedup key may
// cost. internal/elog's test of the same name measures a held base.
func TestSealedBaseBudget(t *testing.T) {
	if got := unsafe.Sizeof(Instance{}); got > 120 {
		t.Errorf("Sizeof(Instance) = %d, budget 120", got)
	}
	if got := unsafe.Sizeof(instKey{}); got > 48 {
		t.Errorf("Sizeof(instKey) = %d, budget 48", got)
	}
}
