package order

import "repro/internal/graph"

// vertexQueue is the indexed priority queue Sloan's, King's and the
// Gibbs–King numberings share: a binary min-heap of vertices ordered by
// (key, degree, label), with each vertex's position in the heap. A vertex
// is queued at most once, and a key that changes while its vertex is
// queued is restored to heap order in place, so a pop never has stale
// entries to skip.
//
// The keys live in a slice the caller owns and updates. Every change to a
// queued vertex's key must be followed by fix before any other call: the
// heap compares live keys, so two changes sifted late can leave it out of
// order.
type vertexQueue struct {
	heap []int32 // queued vertices in heap order
	pos  []int32 // pos[v] is v's index in heap, −1 when v is not queued
	key  []int32 // key[v]; the smallest pops first
	xadj []int32 // the graph's offsets, for the degree tie-break
}

// newVertexQueue returns an empty queue over the vertices of g ordered by
// key. heap and pos are scratch of length g.N(); their contents are
// overwritten.
func newVertexQueue(g *graph.Graph, key, heap, pos []int32) vertexQueue {
	for i := range pos {
		pos[i] = -1
	}
	return vertexQueue{heap: heap[:0], pos: pos, key: key, xadj: g.Xadj}
}

func (q *vertexQueue) len() int { return len(q.heap) }

func (q *vertexQueue) queued(v int32) bool { return q.pos[v] >= 0 }

// less orders by key, then degree, then label: a total order, so the
// minimum is unique.
func (q *vertexQueue) less(a, b int32) bool {
	if ka, kb := q.key[a], q.key[b]; ka != kb {
		return ka < kb
	}
	if da, db := q.xadj[a+1]-q.xadj[a], q.xadj[b+1]-q.xadj[b]; da != db {
		return da < db
	}
	return a < b
}

// push queues v, which must not be queued.
func (q *vertexQueue) push(v int32) {
	q.heap = append(q.heap, v)
	q.up(len(q.heap) - 1)
}

// pop removes and returns the minimum vertex; the queue must not be empty.
func (q *vertexQueue) pop() int32 {
	v := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	q.pos[v] = -1
	if last > 0 {
		q.down(0)
	}
	return v
}

// fix restores heap order after key[v] changed; v must be queued.
func (q *vertexQueue) fix(v int32) {
	if i := int(q.pos[v]); !q.up(i) {
		q.down(i)
	}
}

// up sifts the vertex at index i toward the root and reports whether it
// moved.
func (q *vertexQueue) up(i int) bool {
	h := q.heap
	v, start := h[i], i
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(v, h[p]) {
			break
		}
		h[i] = h[p]
		q.pos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	q.pos[v] = int32(i)
	return i != start
}

// down sifts the vertex at index i toward the leaves.
func (q *vertexQueue) down(i int) {
	h := q.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && q.less(h[r], h[c]) {
			c = r
		}
		if !q.less(h[c], v) {
			break
		}
		h[i] = h[c]
		q.pos[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	q.pos[v] = int32(i)
}
