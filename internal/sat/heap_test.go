package sat

import (
	"math/rand"
	"testing"
)

func TestVarHeapOrdering(t *testing.T) {
	act := make([]float64, 50)
	h := &varHeap{act: act}
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < 50; v++ {
		act[v] = rng.Float64()
		h.insert(v)
	}
	prev := 2.0
	seen := map[int]bool{}
	for !h.empty() {
		v := h.removeMax()
		if seen[v] {
			t.Fatal("duplicate pop")
		}
		seen[v] = true
		if act[v] > prev {
			t.Fatalf("heap order violated: %f after %f", act[v], prev)
		}
		prev = act[v]
	}
	if len(seen) != 50 {
		t.Fatalf("popped %d", len(seen))
	}
}

func TestVarHeapBump(t *testing.T) {
	act := make([]float64, 10)
	h := &varHeap{act: act}
	for v := 0; v < 10; v++ {
		act[v] = float64(v)
		h.insert(v)
	}
	act[0] = 100
	h.bump(0)
	if got := h.removeMax(); got != 0 {
		t.Fatalf("bumped var not max: got %d", got)
	}
}

func TestVarHeapReinsert(t *testing.T) {
	act := make([]float64, 4)
	h := &varHeap{act: act}
	for v := 0; v < 4; v++ {
		h.insert(v)
	}
	v := h.removeMax()
	if h.contains(v) {
		t.Fatal("popped var still contained")
	}
	h.insert(v)
	if !h.contains(v) {
		t.Fatal("reinsert failed")
	}
	h.insert(v) // duplicate insert is a no-op
	count := 0
	for !h.empty() {
		h.removeMax()
		count++
	}
	if count != 4 {
		t.Fatalf("popped %d, want 4", count)
	}
}
