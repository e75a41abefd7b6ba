package graph

// LevelStructure is a rooted level structure: the partition of a connected
// vertex set into BFS levels from a root. It is the central data structure
// of the Cuthill–McKee family of ordering algorithms.
type LevelStructure struct {
	Root int
	// LevelOf[v] = BFS distance of v from Root, or -1 if v was not reached.
	LevelOf []int32
	// Verts lists the reached vertices in BFS order (level by level).
	Verts []int32
	// Offsets has length Depth()+1; level l is Verts[Offsets[l]:Offsets[l+1]].
	Offsets []int32
}

// Depth returns the number of levels (eccentricity of the root + 1).
func (ls *LevelStructure) Depth() int { return len(ls.Offsets) - 1 }

// Level returns the vertices at level l as a shared sub-slice.
func (ls *LevelStructure) Level(l int) []int32 {
	return ls.Verts[ls.Offsets[l]:ls.Offsets[l+1]]
}

// Width returns the maximum level size.
func (ls *LevelStructure) Width() int {
	w := 0
	for l := 0; l < ls.Depth(); l++ {
		if s := len(ls.Level(l)); s > w {
			w = s
		}
	}
	return w
}

// Size returns the number of reached vertices.
func (ls *LevelStructure) Size() int { return len(ls.Verts) }

// NewLevelStructure runs a breadth-first search from root and returns the
// rooted level structure of root's connected component.
func NewLevelStructure(g *Graph, root int) *LevelStructure {
	ls := &LevelStructure{}
	LevelStructureInto(g, root, ls)
	return ls
}

// LevelStructureInto runs a breadth-first search from root into ls, reusing
// ls's slices when their capacity allows. The pseudo-peripheral searches
// and the ordering algorithms ping-pong a pair of structures through this
// to keep their repeated BFS sweeps off the allocator.
func LevelStructureInto(g *Graph, root int, ls *LevelStructure) {
	n := g.N()
	if cap(ls.LevelOf) >= n {
		ls.LevelOf = ls.LevelOf[:n]
	} else {
		ls.LevelOf = make([]int32, n)
	}
	levelOf := ls.LevelOf
	for i := range levelOf {
		levelOf[i] = -1
	}
	verts := ls.Verts[:0]
	offsets := append(ls.Offsets[:0], 0)

	levelOf[root] = 0
	verts = append(verts, int32(root))
	head := 0
	curLevel := int32(0)
	for head < len(verts) {
		v := verts[head]
		if levelOf[v] > curLevel {
			offsets = append(offsets, int32(head))
			curLevel = levelOf[v]
		}
		head++
		for _, w := range g.Neighbors(int(v)) {
			if levelOf[w] < 0 {
				levelOf[w] = levelOf[v] + 1
				verts = append(verts, w)
			}
		}
	}
	offsets = append(offsets, int32(len(verts)))
	ls.Root = root
	ls.Verts = verts
	ls.Offsets = offsets
}

// Eccentricity returns the BFS eccentricity of v within its component.
func Eccentricity(g *Graph, v int) int {
	return NewLevelStructure(g, v).Depth() - 1
}
