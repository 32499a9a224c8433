package sat

// varHeap is an indexed max-heap of variables ordered by activity. It
// supports increase-key via the position index (bump), as required by
// VSIDS branching. Variables and positions are stored as int32.
type varHeap struct {
	act     []float64 // the solver's activity array, indexed by variable
	heap    []int32   // heap of variables
	indices []int32   // variable -> position in heap, -1 if absent
}

func (h *varHeap) less(a, b int32) bool { return h.act[a] > h.act[b] }

func (h *varHeap) grow(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) contains(v int) bool {
	return v < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) insert(v int) {
	h.grow(v)
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.percolateUp(h.indices[v])
}

func (h *varHeap) removeMax() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.indices[v] = -1
	h.heap = h.heap[:len(h.heap)-1]
	if len(h.heap) > 1 {
		h.percolateDown(0)
	}
	return int(v)
}

// bump notifies the heap that v's activity increased, so it may need to
// move up.
func (h *varHeap) bump(v int) {
	if h.contains(v) {
		h.percolateUp(h.indices[v])
	}
}

func (h *varHeap) percolateUp(i int32) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) percolateDown(i int32) {
	v := h.heap[i]
	n := int32(len(h.heap))
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && h.less(h.heap[r], h.heap[l]) {
			child = r
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[child]] = i
		i = child
	}
	h.heap[i] = v
	h.indices[v] = i
}
