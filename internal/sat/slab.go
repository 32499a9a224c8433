package sat

import "math/bits"

// slab keeps one growable list per index in a single pointer-free array:
// the CNF watch lists (one per literal) and the XOR watch lists (one per
// variable). List i is data[off : off+n] of spans[i], with room for
// roomOf(class) entries. Pushing onto a full list moves it, entries in
// order, to room of the next class: grown in place when the list ends
// where data does, else a hole of that class left by an earlier move,
// else new room at the end of data. Its old room becomes a hole of its
// class. When data has no room left at its end, repack copies every list
// in index order, without the holes and in the smallest class that holds
// it, into an array with as much free room again: spare, the array the
// previous repack left, when it has that room, else a new one. Neither a
// move nor a repack changes a list's entries or their order, so the search
// visits watchers exactly as it would in separate slices.
//
// A push that repacks returns true. A caller holding a view of another
// list (propagate scanning a watch list while it pushes onto others) must
// then take its view again. The scanned list keeps its recorded length
// until the scan writes the new one back, so a repack in the middle of a
// scan copies the list's whole prefix, the entries the scan has already
// rewritten included.
type slab[T any] struct {
	data  []T
	spare []T // the array data was before the last repack, at length 0
	spans []span
	holes [32][]uint32 // offsets of the holes of each class
}

// span locates one list of a slab in 8 bytes: its offset, and its length
// and room class packed into one word.
type span struct {
	off uint32
	nc  uint32 // n<<classBits | class
}

const (
	classBits = 5
	classMask = 1<<classBits - 1
)

// roomOf is the room of class c: 0 for class 0, then 2, 4, 8, ….
func roomOf(c uint32) uint32 { return (1 << c) &^ 1 }

// classFor is the smallest class with room for n entries.
func classFor(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	return max(1, uint32(bits.Len32(n-1)))
}

// emptied returns a slab with no lists that takes over s's arrays, their
// capacity included.
func (s *slab[T]) emptied() slab[T] {
	e := slab[T]{data: s.data[:0], spare: s.spare[:0], spans: s.spans[:0]}
	for c, h := range s.holes {
		e.holes[c] = h[:0]
	}
	return e
}

// list returns list i as a view into the slab, valid until a push onto
// any list repacks it.
func (s *slab[T]) list(i int) []T {
	sp := s.spans[i]
	end := sp.off + sp.nc>>classBits
	return s.data[sp.off:end:end]
}

// setLen cuts list i to its first n entries.
func (s *slab[T]) setLen(i, n int) {
	sp := &s.spans[i]
	sp.nc = uint32(n)<<classBits | sp.nc&classMask
}

// push appends x to list i and reports whether the slab was repacked.
func (s *slab[T]) push(i int, x T) bool {
	sp := &s.spans[i]
	n := sp.nc >> classBits
	if n < roomOf(sp.nc&classMask) {
		s.data[sp.off+n] = x
		sp.nc += 1 << classBits
		return false
	}
	return s.pushFull(i, x)
}

// pushFull moves the full list i to room of the next class and appends x.
func (s *slab[T]) pushFull(i int, x T) bool {
	sp := &s.spans[i]
	n, c := sp.nc>>classBits, sp.nc&classMask
	room := roomOf(c + 1)
	end := uint32(len(s.data))
	repacked := false
	switch holes := s.holes[c+1]; {
	case sp.off+roomOf(c) == end && int(sp.off+room) <= cap(s.data):
		s.data = s.data[:sp.off+room]
	case len(holes) > 0:
		s.holes[c+1] = holes[:len(holes)-1]
		s.move(sp, holes[len(holes)-1])
	case int(end+room) <= cap(s.data):
		s.data = s.data[:end+room]
		s.move(sp, end)
	default:
		s.repack(i)
		repacked = true
	}
	sp.nc = (n+1)<<classBits | (c + 1)
	s.data[sp.off+n] = x
	return repacked
}

// move copies the list at sp to off and records its old room as a hole.
func (s *slab[T]) move(sp *span, off uint32) {
	copy(s.data[off:], s.data[sp.off:sp.off+sp.nc>>classBits])
	if c := sp.nc & classMask; c > 0 {
		s.holes[c] = append(s.holes[c], sp.off)
	}
	sp.off = off
}

// repack copies every list, in index order and without the holes, into an
// array with as much free room again as the lists own: the spare when it
// has that room, else a new one. The old array becomes the spare. Each
// list gets the smallest class that holds it, the full list i with one
// more entry, which is its next class.
func (s *slab[T]) repack(i int) {
	owned := 0
	for j := range s.spans {
		sp := &s.spans[j]
		n := sp.nc >> classBits
		if j == i {
			n++
		}
		sp.nc = sp.nc&^classMask | classFor(n)
		owned += int(roomOf(classFor(n)))
	}
	data := s.spare[:0]
	if cap(data) < 2*owned {
		data = make([]T, 0, 2*owned)
	}
	for j := range s.spans {
		sp := &s.spans[j]
		off := len(data)
		data = append(data, s.data[sp.off:sp.off+sp.nc>>classBits]...)
		data = data[:off+int(roomOf(sp.nc&classMask))]
		sp.off = uint32(off)
	}
	s.data, s.spare = data, s.data[:0]
	for c := range s.holes {
		s.holes[c] = s.holes[c][:0]
	}
}
