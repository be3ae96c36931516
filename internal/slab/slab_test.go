package slab

import "testing"

func TestGrowReuse(t *testing.T) {
	s := New(8)
	if len(s.Times) != 0 {
		t.Fatalf("new slab: Len = %d, want 0", len(s.Times))
	}
	s.Grow(8)
	if len(s.Times) != 8 {
		t.Fatalf("after Grow(8): Len = %d, want 8", len(s.Times))
	}
	s.Times[0] = 1.5
	s.Flags[0] = FlagDummy
	p := &s.Times[0]
	s.Grow(4)
	if len(s.Times) != 4 {
		t.Fatalf("after Grow(4): Len = %d, want 4", len(s.Times))
	}
	if &s.Times[0] != p {
		t.Fatal("Grow within capacity reallocated")
	}
	s.Grow(32)
	if len(s.Times) != 32 {
		t.Fatalf("after Grow(32): Len = %d, want 32", len(s.Times))
	}
	if len(s.Flags) != 32 {
		t.Fatalf("Flags length = %d, want 32", len(s.Flags))
	}
	s.Times[31] = 2.0
	s.Flags[31] = FlagDummy
}
