package pipeline

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
	"repro/internal/store"
)

// DefaultCacheGraphs is the default number of distinct graphs a Cache
// retains before evicting least-recently-used entries.
const DefaultCacheGraphs = 8

// maxArtifactOptionSets bounds how many distinct spectral-option variants
// of a graph's artifacts an entry retains, and how many finished answers
// it memoizes (see Recall): four, the algorithms a serving mix cycles over
// one graph at one seed. The LRU bounds graph count; this bounds the
// per-graph dimension, so a caller sweeping seeds or tolerances on one
// pinned graph cannot grow memory without bound. On overflow the map is
// reset — in-flight runs keep the artifacts they already hold, the next
// call re-solves.
const maxArtifactOptionSets = 4

// Cache memoizes per-graph ordering artifacts across calls: the connected
// component decomposition, the extracted component subgraphs, and the
// per-component Artifacts (Fiedler solve, peripheral root, pseudo-diameter)
// keyed by the spectral options that parameterize them. A Session threads
// one Cache through every Order, Auto and Fiedler call, so repeated
// orderings of the same graph — the serving pattern of a long-lived
// ordering service — pay for decomposition, extraction and eigensolves
// once, disconnected graphs included.
//
// Graphs are keyed by pointer identity, which is sound because Graph is
// immutable. Intern adds a content key: it resolves a graph to the resident
// instance with the same fingerprint, so callers that parse every request
// afresh (the envorderd daemon) still reach the memoized artifacts.
// InternDigest adds a third key over the same entries, the SHA-256 of the
// latest Matrix Market text a graph was parsed from, so a caller that
// receives the same text again finds the resident graph (ByDigest) without
// parsing or fingerprinting it. Each entry also memoizes the finished answers of
// the pure built-in orderers (Recall, Remember), so a repeated order costs
// a lookup and a copy. Entries are evicted least-recently-used beyond the
// configured capacity, every key and answer together, bounding the memory
// a long-lived Session can pin: no key outlives its graph. The Cache —
// and with it every artifact it memoizes — lives exactly as long as its
// Session: eviction or process exit discards the work. Binding a tier-2
// store (SetStore) is what extends artifact lifetime past the process:
// evicted or never-seen graphs re-enter warm by content fingerprint, from
// this process's earlier life or any other process sharing the store. A
// Cache is safe for concurrent use; artifacts reached through it retain
// the Artifacts guarantees (memoized once, cancelled solves retried).
//
// Caching never changes results: every artifact is a pure function of the
// graph and the options, so a cached Auto run is byte-identical to an
// uncached one — and a store-warmed run to both.
type Cache struct {
	mu       sync.Mutex
	max      int
	entries  map[*graph.Graph]*list.Element
	interned map[graph.Fingerprint]*list.Element // content index of Intern'd entries
	texts    map[[sha256.Size]byte]*list.Element // text index of InternDigest'd entries
	lru      *list.List                          // of *cacheEntry; front = most recently used
	store    store.Store                         // tier 2; nil = in-memory only
}

// NewCache returns a Cache retaining at most maxGraphs graphs (≤ 0 means
// DefaultCacheGraphs).
func NewCache(maxGraphs int) *Cache {
	if maxGraphs <= 0 {
		maxGraphs = DefaultCacheGraphs
	}
	return &Cache{
		max:      maxGraphs,
		entries:  map[*graph.Graph]*list.Element{},
		interned: map[graph.Fingerprint]*list.Element{},
		texts:    map[[sha256.Size]byte]*list.Element{},
		lru:      list.New(),
	}
}

// SetStore binds the persistent tier-2 store newly created artifacts probe
// before solving and write back after. Set it before the Cache serves
// traffic (artifacts created earlier keep running store-less); the Cache
// does not own st and never closes it.
func (c *Cache) SetStore(st store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
}

// tier2 returns the bound store (nil without one).
func (c *Cache) tier2() store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// cacheEntry is one graph's memo. Its mutex serializes the (one-time)
// decomposition, the per-options artifact map and the answer map; the
// artifacts themselves do their own finer-grained memoization.
type cacheEntry struct {
	g     *graph.Graph
	fp    *graph.Fingerprint // set once Intern has indexed the entry
	text  [sha256.Size]byte  // digest of the latest text InternDigest indexed the entry under; guarded by Cache.mu
	mu    sync.Mutex
	comps [][]int
	subs  []*graph.Graph // aligned with comps (see resolved)
	arts  map[core.Options][]*Artifacts
	// answers memoizes finished orderings (see Recall). An answer is never
	// mutated once stored, so readers use it after releasing mu.
	answers map[answerKey]*answer
}

// entry returns g's cache entry, creating it (and evicting the
// least-recently-used entry past capacity) as needed.
func (c *Cache) entry(g *graph.Graph) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elementLocked(g).Value.(*cacheEntry)
}

// elementLocked is entry's body under c.mu, returning g's LRU element.
func (c *Cache) elementLocked(g *graph.Graph) *list.Element {
	if el, ok := c.entries[g]; ok {
		c.lru.MoveToFront(el)
		return el
	}
	el := c.lru.PushFront(&cacheEntry{g: g})
	c.entries[g] = el
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		delete(c.entries, e.g)
		if e.fp != nil {
			delete(c.interned, *e.fp)
		}
		if c.texts[e.text] == back {
			delete(c.texts, e.text)
		}
		c.lru.Remove(back)
	}
	return el
}

// Intern resolves g by content: it returns the resident graph with g's
// fingerprint and true, so the caller reaches that graph's memoized
// artifacts, or indexes g's own entry under the fingerprint and returns g
// and false. The content key lives and dies with the entry's LRU slot.
func (c *Cache) Intern(g *graph.Graph) (*graph.Graph, bool) {
	return c.intern(g, nil)
}

// InternDigest is Intern for a graph parsed from a Matrix Market text
// whose SHA-256 is digest: it also indexes the entry g resolves to under
// digest, so ByDigest finds the graph by its text alone. A graph that is
// already the resident instance of its content — one ByDigest returned —
// resolves by pointer, without fingerprinting. An entry is indexed under
// one digest, the latest text's: a text that differs only in comments or
// white space replaces the one before. The digest lives and dies with the
// entry.
func (c *Cache) InternDigest(g *graph.Graph, digest [sha256.Size]byte) (*graph.Graph, bool) {
	return c.intern(g, &digest)
}

func (c *Cache) intern(g *graph.Graph, digest *[sha256.Size]byte) (*graph.Graph, bool) {
	c.mu.Lock()
	if el, ok := c.entries[g]; ok && el.Value.(*cacheEntry).fp != nil {
		c.lru.MoveToFront(el)
		c.indexTextLocked(el, digest)
		c.mu.Unlock()
		return g, true
	}
	c.mu.Unlock()
	fp := graph.FingerprintOf(g)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, resident := c.interned[fp]
	if resident {
		c.lru.MoveToFront(el)
	} else {
		el = c.elementLocked(g)
		el.Value.(*cacheEntry).fp = &fp
		c.interned[fp] = el
	}
	c.indexTextLocked(el, digest)
	return el.Value.(*cacheEntry).g, resident
}

// indexTextLocked indexes el under digest (nil = none) in place of the
// entry's previous digest. The caller holds c.mu.
func (c *Cache) indexTextLocked(el *list.Element, digest *[sha256.Size]byte) {
	if digest == nil || c.texts[*digest] == el {
		return
	}
	e := el.Value.(*cacheEntry)
	if c.texts[e.text] == el {
		delete(c.texts, e.text)
	}
	e.text = *digest
	c.texts[e.text] = el
}

// ByDigest returns the resident graph whose Matrix Market text has the
// SHA-256 digest (as indexed by InternDigest) and true, or nil and false.
// It leaves the LRU order alone: the caller interns what it gets, which
// decides residency at that point.
func (c *Cache) ByDigest(digest [sha256.Size]byte) (*graph.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.texts[digest]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).g, true
}

// Len reports the number of graphs currently cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Clear drops every cached entry, releasing the graphs, subgraphs and
// artifact vectors the cache was pinning. Safe for concurrent use;
// in-flight runs keep working on the entries they already hold.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[*graph.Graph]*list.Element{}
	c.interned = map[graph.Fingerprint]*list.Element{}
	c.texts = map[[sha256.Size]byte]*list.Element{}
	c.lru.Init()
}

// cacheable reports whether runs under opt may be served from a Cache. A
// caller-supplied operator (Operator or Multilevel.FinestOp) is an exact
// instance the caller wants driven (instrumented or preconditioned), while
// a cached artifact's solve ran on an operator of its own, and a warm
// entry would hand back a solve this call's operator never drove. Such
// runs are served uncached, so the artifact maps key on operator-free
// options.
func cacheable(opt core.Options) bool {
	return opt.Operator == nil && opt.Multilevel.FinestOp == nil
}

// resolved is one graph's decomposition plus per-component artifacts for a
// specific spectral-options key, components largest first (ties by lowest
// vertex, as graph.Components orders them). comps[i] lists component i's
// vertices in ascending order, or is nil when the component is the whole
// graph. subs[i] is its subgraph — the graph itself when whole — and nil
// for a single vertex, where arts[i] is nil too.
type resolved struct {
	comps [][]int
	subs  []*graph.Graph
	arts  []*Artifacts
}

// size returns the vertex count of component i of g.
func (r *resolved) size(g *graph.Graph, i int) int {
	if r.comps[i] == nil {
		return g.N()
	}
	return len(r.comps[i])
}

// place appends local, an ordering of component i in its own labels, to
// out in the labels of the resolved graph — the relabel-and-concatenate
// step every engine entry point stitches with.
func (r *resolved) place(out, local perm.Perm, i int) perm.Perm {
	verts := r.comps[i]
	if verts == nil {
		return append(out, local...)
	}
	for _, v := range local {
		out = append(out, int32(verts[v]))
	}
	return out
}

// weight returns w relabelled to component i's labels (nil stays nil).
func (r *resolved) weight(w func(u, v int) float64, i int) func(u, v int) float64 {
	verts := r.comps[i]
	if w == nil || verts == nil {
		return w
	}
	return func(u, v int) float64 { return w(verts[u], verts[v]) }
}

// extractAll decomposes g and extracts every component subgraph of two or
// more vertices on the worker pool — the uncached resolve. A connected g
// skips graph.Components (and its sorted member list): its one component
// is g itself. st (may be nil) is the tier-2 store bound into the fresh
// artifacts. A caller-supplied operator (Operator or Multilevel.FinestOp)
// describes the whole graph, so only the artifacts of a component that is
// the whole graph keep it; the others solve on their own operators.
func extractAll(g *graph.Graph, workers int, sopt core.Options, st store.Store) resolved {
	if graph.IsConnected(g) {
		if g.N() == 0 {
			return resolved{}
		}
		r := resolved{comps: [][]int{nil}, subs: []*graph.Graph{nil}, arts: []*Artifacts{nil}}
		if g.N() > 1 {
			r.subs[0], r.arts[0] = g, newArtifacts(g, sopt, st)
		}
		return r
	}
	copt := sopt
	copt.Operator, copt.Multilevel.FinestOp = nil, nil
	comps := graph.Components(g)
	r := resolved{
		comps: comps,
		subs:  make([]*graph.Graph, len(comps)),
		arts:  make([]*Artifacts, len(comps)),
	}
	runPool(workers, len(comps), func(ci int, ws *scratch.Workspace) {
		if len(comps[ci]) < 2 {
			return
		}
		sub := &graph.Graph{}
		g.SubgraphInto(ws, sub, comps[ci])
		r.subs[ci] = sub
		r.arts[ci] = newArtifacts(sub, copt, st)
	})
	return r
}

// resolve returns g's decomposition and artifacts for sopt, through the
// cache when one is configured and sopt is cacheable. Every entry point
// (Order, Auto, Whole) resolves here, so a SPECTRAL order, a later Auto
// run and a Fiedler call on the same graph share one eigensolve per
// component.
func resolve(g *graph.Graph, workers int, sopt core.Options, cache *Cache) resolved {
	if cache == nil || !cacheable(sopt) {
		return extractAll(g, workers, sopt, nil)
	}
	st := cache.tier2()
	e := cache.entry(g)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.comps == nil {
		r := extractAll(g, workers, sopt, st)
		e.comps, e.subs = r.comps, r.subs
		e.arts = map[core.Options][]*Artifacts{sopt: r.arts}
		return r
	}
	arts, ok := e.arts[sopt]
	if !ok {
		if len(e.arts) >= maxArtifactOptionSets {
			e.arts = map[core.Options][]*Artifacts{}
		}
		arts = make([]*Artifacts, len(e.comps))
		for i, sub := range e.subs {
			if sub != nil {
				arts[i] = newArtifacts(sub, sopt, st)
			}
		}
		e.arts[sopt] = arts
	}
	return resolved{comps: e.comps, subs: e.subs, arts: arts}
}

// answerKey names one memoized answer of a graph: the canonical algorithm,
// the request seed and the seed-defaulted spectral options the graph's
// artifacts are keyed by (see resolve).
type answerKey struct {
	algorithm string
	seed      int64
	spectral  core.Options
}

// answer is one finished ordering an entry memoizes: what Session.Do
// returns for it, timing aside. perm is the memo's own copy.
type answer struct {
	perm       perm.Perm
	stats      envelope.Stats
	solve      *solver.Stats
	reversed   bool
	components int
}

// memoKey returns the key of running the algorithm name under req, and
// whether its answer may be memoized at all: only for the eight built-ins
// whose answer is a pure function of the graph, the seed and the spectral
// options, with no edge weights and cacheable options. WEIGHTED reads
// weights no key holds, AUTO is a portfolio race a budget makes timing
// dependent, and a registered plugin need not be pure; the registry is
// append-only, so these names always mean the built-ins.
func memoKey(name string, req *OrderRequest) (answerKey, bool) {
	switch name {
	case AlgRCM, AlgCM, AlgGPS, AlgGK, AlgKing, AlgSloan, AlgSpectral, AlgSpectralSloan:
	default:
		return answerKey{}, false
	}
	if req.Weight != nil || !cacheable(req.Spectral) {
		return answerKey{}, false
	}
	sopt := req.Spectral
	if sopt.Seed == 0 {
		sopt.Seed = req.Seed
	}
	return answerKey{algorithm: name, seed: req.Seed, spectral: sopt}, true
}

// Recall serves a repeated order from the answer memo: when g is resident
// and holds an answer of the algorithm name under req, it fills res with
// it and reports true. The permutation is copied into res.Perm's storage,
// and res.Solve points at solve (a fresh value when nil) holding a copy of
// the memoized record, so the caller owns res and a recycled one
// allocates nothing. Otherwise — a nil Cache, an order the memo does not
// serve (see memoKey), or no answer yet — it reports false and leaves res
// alone. Like an order, a recall marks g recently used.
func (c *Cache) Recall(g *graph.Graph, name string, req *OrderRequest, res *Result, solve *solver.Stats) bool {
	if c == nil {
		return false
	}
	key, ok := memoKey(name, req)
	if !ok {
		return false
	}
	c.mu.Lock()
	el, ok := c.entries[g]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	e.mu.Lock()
	a := e.answers[key]
	e.mu.Unlock()
	if a == nil {
		return false
	}
	p := res.Perm[:0]
	if p == nil {
		p = make(perm.Perm, 0, len(a.perm))
	}
	*res = Result{Perm: append(p, a.perm...), Stats: a.stats, Reversed: a.reversed, Components: a.components}
	if a.solve != nil {
		if solve == nil {
			solve = new(solver.Stats)
		}
		*solve = *a.solve
		res.Solve = solve
	}
	return true
}

// Remember memoizes res, the successful answer of the algorithm name
// under req on g, for Recall. Only a resident g's answers are kept, and
// only those memoKey admits; the memo copies what it keeps, so the caller
// still owns res. Concurrent first orders may both remember: the answers
// are equal by purity.
func (c *Cache) Remember(g *graph.Graph, name string, req *OrderRequest, res *Result) {
	if c == nil {
		return
	}
	key, ok := memoKey(name, req)
	if !ok {
		return
	}
	c.mu.Lock()
	el, ok := c.entries[g]
	c.mu.Unlock()
	if !ok {
		return
	}
	a := &answer{perm: append(make(perm.Perm, 0, len(res.Perm)), res.Perm...), stats: res.Stats,
		reversed: res.Reversed, components: res.Components}
	if res.Solve != nil {
		st := *res.Solve
		a.solve = &st
	}
	e := el.Value.(*cacheEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.answers[key]; !dup && len(e.answers) >= maxArtifactOptionSets {
		e.answers = nil
	}
	if e.answers == nil {
		e.answers = map[answerKey]*answer{}
	}
	e.answers[key] = a
}
