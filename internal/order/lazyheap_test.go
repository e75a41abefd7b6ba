package order

import (
	"container/heap"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// This file freezes the lazy-deletion heaps Sloan, King and Gibbs–King
// used before they shared the indexed vertexQueue. Every priority change
// pushed a fresh heap entry, and pops skipped the stale ones. The copies
// below are the reference the byte-identity tests in oracle_test.go hold
// the indexed queue to: the queue must pop exactly the vertex the lazy
// heap's first valid pop returned. They are exported so the external test
// package, which also drives core.SloanRefine, can reach them.

type lazySloanItem struct {
	prio int32
	deg  int32
	v    int32
}

type lazySloanHeap []lazySloanItem

func (h lazySloanHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio // max-heap on priority
	}
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}

func (h *lazySloanHeap) push(it lazySloanItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !s.less(j, parent) {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
}

func (h *lazySloanHeap) pop() lazySloanItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

func lazySloanComponentInto(ws *scratch.Workspace, g *graph.Graph, start int, dist []int32, w SloanWeights, out []int32) []int32 {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	status := ws.Int32s(n)
	prio := ws.Int32s(n)
	for v := 0; v < n; v++ {
		status[v] = sloanInactive
		prio[v] = w.W1*dist[v] - w.W2*int32(g.Degree(v)+1)
	}
	first := len(out)
	h := make(lazySloanHeap, 0, n)

	push := func(v int32) {
		h.push(lazySloanItem{prio[v], int32(g.Degree(int(v))), v})
	}
	bump := func(v int32, delta int32) {
		prio[v] += delta
		if status[v] == sloanPreactive || status[v] == sloanActive {
			push(v)
		}
	}

	status[start] = sloanPreactive
	push(int32(start))
	for len(out)-first < n {
		var v int32 = -1
		for len(h) > 0 {
			it := h.pop()
			if status[it.v] == sloanNumbered || prio[it.v] != it.prio {
				continue
			}
			v = it.v
			break
		}
		if v < 0 {
			break
		}
		if status[v] == sloanPreactive {
			for _, u := range g.Neighbors(int(v)) {
				if status[u] == sloanNumbered {
					continue
				}
				bump(u, w.W2)
				if status[u] == sloanInactive {
					status[u] = sloanPreactive
					push(u)
				}
			}
		}
		status[v] = sloanNumbered
		out = append(out, v)
		for _, u := range g.Neighbors(int(v)) {
			if status[u] != sloanPreactive {
				continue
			}
			status[u] = sloanActive
			bump(u, w.W2)
			for _, x := range g.Neighbors(int(u)) {
				if status[x] == sloanNumbered || x == v {
					continue
				}
				bump(x, w.W2)
				if status[x] == sloanInactive {
					status[x] = sloanPreactive
					push(x)
				}
			}
		}
	}
	return out
}

// LazySloanWS is the frozen SloanWS.
func LazySloanWS(ws *scratch.Workspace, g *graph.Graph) perm.Perm {
	w := DefaultSloanWeights()
	return overComponentsWS(ws, g, func(ws *scratch.Workspace, sub *graph.Graph, out []int32) []int32 {
		if sub.N() == 0 {
			return out
		}
		if sub.N() == 1 {
			return append(out, 0)
		}
		u, _, _, lsV := graph.PseudoDiameter(sub, 0)
		return lazySloanComponentInto(ws, sub, u, lsV.LevelOf, w, out)
	})
}

// LazySloanFromDiameterWS is the frozen SloanFromDiameterWS.
func LazySloanFromDiameterWS(ws *scratch.Workspace, g *graph.Graph, u int, distToEnd []int32) perm.Perm {
	n := g.N()
	if n == 0 {
		return perm.Perm{}
	}
	if n == 1 {
		return perm.Perm{0}
	}
	return perm.Perm(lazySloanComponentInto(ws, g, u, distToEnd, DefaultSloanWeights(), make([]int32, 0, n)))
}

// LazySloanOrderWithGlobal is the frozen SloanOrderWithGlobal.
func LazySloanOrderWithGlobal(g *graph.Graph, start int, global []int32, w SloanWeights) ([]int32, bool) {
	if !graph.IsConnected(g) {
		return nil, false
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	return lazySloanComponentInto(ws, g, start, global, w, make([]int32, 0, g.N())), true
}

type lazyKingState struct {
	g        *graph.Graph
	numbered []bool
	inFront  []bool
	grow     []int32
	order    []int32
}

func newLazyKingState(g *graph.Graph) *lazyKingState {
	n := g.N()
	ks := &lazyKingState{
		g:        g,
		numbered: make([]bool, n),
		inFront:  make([]bool, n),
		grow:     make([]int32, n),
		order:    make([]int32, 0, n),
	}
	for v := 0; v < n; v++ {
		ks.grow[v] = int32(g.Degree(v))
	}
	return ks
}

func (ks *lazyKingState) place(v int32, touched *[]int32) {
	g := ks.g
	ks.numbered[v] = true
	wasInFront := ks.inFront[v]
	ks.inFront[v] = false
	ks.order = append(ks.order, v)
	if !wasInFront {
		for _, w := range g.Neighbors(int(v)) {
			if !ks.numbered[w] {
				ks.grow[w]--
				*touched = append(*touched, w)
			}
		}
	}
	for _, u := range g.Neighbors(int(v)) {
		if ks.numbered[u] || ks.inFront[u] {
			continue
		}
		ks.inFront[u] = true
		*touched = append(*touched, u)
		for _, x := range g.Neighbors(int(u)) {
			if !ks.numbered[x] {
				ks.grow[x]--
				*touched = append(*touched, x)
			}
		}
	}
}

type lazyKingItem struct {
	grow int32
	deg  int32
	v    int32
}

type lazyKingHeap []lazyKingItem

func (h lazyKingHeap) Len() int { return len(h) }
func (h lazyKingHeap) Less(i, j int) bool {
	if h[i].grow != h[j].grow {
		return h[i].grow < h[j].grow
	}
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}
func (h lazyKingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lazyKingHeap) Push(x any)   { *h = append(*h, x.(lazyKingItem)) }
func (h *lazyKingHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func lazyBetter(g *graph.Graph, w, incumbent int32) bool {
	if incumbent < 0 {
		return true
	}
	dw, di := g.Degree(int(w)), g.Degree(int(incumbent))
	if dw != di {
		return dw < di
	}
	return w < incumbent
}

func lazyNumberByKing(g *graph.Graph, c *combined) []int32 {
	ks := newLazyKingState(g)
	var touched []int32
	ks.place(int32(c.start), &touched)

	for l := 0; l < c.k; l++ {
		level := c.levels[l]
		inLevel := func(w int32) bool { return c.levelOf[w] == int32(l) }
		remaining := 0
		h := make(lazyKingHeap, 0, len(level))
		for _, w := range level {
			if !ks.numbered[w] {
				remaining++
				if ks.inFront[w] {
					h = append(h, lazyKingItem{ks.grow[w], int32(g.Degree(int(w))), w})
				}
			}
		}
		heap.Init(&h)
		for remaining > 0 {
			var pick int32 = -1
			for h.Len() > 0 {
				it := heap.Pop(&h).(lazyKingItem)
				if ks.numbered[it.v] || !ks.inFront[it.v] || ks.grow[it.v] != it.grow {
					continue
				}
				pick = it.v
				break
			}
			if pick < 0 {
				for _, w := range level {
					if ks.numbered[w] {
						continue
					}
					if pick < 0 || ks.grow[w] < ks.grow[pick] ||
						(ks.grow[w] == ks.grow[pick] && lazyBetter(g, w, pick)) {
						pick = w
					}
				}
			}
			touched = touched[:0]
			ks.place(pick, &touched)
			remaining--
			for _, w := range touched {
				if !ks.numbered[w] && ks.inFront[w] && inLevel(w) {
					heap.Push(&h, lazyKingItem{ks.grow[w], int32(g.Degree(int(w))), w})
				}
			}
		}
	}
	return ks.order
}

func lazyKingRooted(g *graph.Graph, root int) []int32 {
	n := g.N()
	ks := newLazyKingState(g)
	var touched []int32
	h := make(lazyKingHeap, 0, n)
	ks.place(int32(root), &touched)
	for _, w := range touched {
		if !ks.numbered[w] && ks.inFront[w] {
			heap.Push(&h, lazyKingItem{ks.grow[w], int32(g.Degree(int(w))), w})
		}
	}
	for len(ks.order) < n {
		var pick int32 = -1
		for h.Len() > 0 {
			it := heap.Pop(&h).(lazyKingItem)
			if ks.numbered[it.v] || !ks.inFront[it.v] || ks.grow[it.v] != it.grow {
				continue
			}
			pick = it.v
			break
		}
		if pick < 0 {
			break
		}
		touched = touched[:0]
		ks.place(pick, &touched)
		for _, w := range touched {
			if !ks.numbered[w] && ks.inFront[w] {
				heap.Push(&h, lazyKingItem{ks.grow[w], int32(g.Degree(int(w))), w})
			}
		}
	}
	reverse(ks.order)
	return ks.order
}

// LazyGK is the frozen GK.
func LazyGK(g *graph.Graph) perm.Perm {
	return overComponents(g, func(g *graph.Graph) []int32 {
		switch g.N() {
		case 0:
			return nil
		case 1:
			return []int32{0}
		}
		order := lazyNumberByKing(g, diameterAndCombine(g))
		reverse(order)
		return order
	})
}

// LazyGKFromDiameter is the frozen GKFromDiameter.
func LazyGKFromDiameter(g *graph.Graph, u, v int, lsU, lsV *graph.LevelStructure) perm.Perm {
	if g.N() == 1 {
		return perm.Perm{0}
	}
	order := lazyNumberByKing(g, combineLevelStructures(g, u, v, lsU, lsV))
	reverse(order)
	return perm.Perm(order)
}

// LazyKing is the frozen King.
func LazyKing(g *graph.Graph) perm.Perm {
	return overComponents(g, func(g *graph.Graph) []int32 {
		if g.N() == 0 {
			return nil
		}
		root, _ := graph.PseudoPeripheral(g, 0)
		return lazyKingRooted(g, root)
	})
}

// LazyKingFromRoot is the frozen KingFromRoot.
func LazyKingFromRoot(g *graph.Graph, root int) perm.Perm {
	return perm.Perm(lazyKingRooted(g, root))
}
