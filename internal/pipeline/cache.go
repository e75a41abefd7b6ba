package pipeline

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
	"repro/internal/store"
)

// DefaultCacheGraphs is the default number of distinct graphs a Cache
// retains before evicting least-recently-used entries.
const DefaultCacheGraphs = 8

// maxArtifactOptionSets bounds how many distinct spectral-option variants
// of a graph's artifacts an entry retains. The LRU bounds graph count;
// this bounds the per-graph dimension, so a caller sweeping seeds or
// tolerances on one pinned graph cannot grow memory without bound. On
// overflow the option map is reset — in-flight runs keep the artifacts
// they already hold, the next call re-solves.
const maxArtifactOptionSets = 4

// Cache memoizes per-graph ordering artifacts across calls: the connected
// component decomposition, the extracted component subgraphs, and the
// per-component Artifacts (Fiedler solve, peripheral root, pseudo-diameter)
// keyed by the spectral options that parameterize them. A Session threads
// one Cache through every Auto and Fiedler call, so repeated orderings of
// the same graph — the serving pattern of a long-lived ordering service —
// pay for decomposition, extraction and eigensolves once.
//
// Graphs are keyed by pointer identity, which is sound because Graph is
// immutable. Intern adds a content key: it resolves a graph to the resident
// instance with the same fingerprint, so callers that parse every request
// afresh (the envorderd daemon) still reach the memoized artifacts. Entries
// are evicted least-recently-used beyond the configured capacity, both keys
// together, bounding the memory a long-lived Session can pin. The Cache —
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
// decomposition and the per-options artifact map; the artifacts themselves
// do their own finer-grained memoization.
type cacheEntry struct {
	g         *graph.Graph
	fp        *graph.Fingerprint // set once Intern has indexed the entry
	mu        sync.Mutex
	connected *bool // memoized IsConnected (pure function of the graph)
	comps     [][]int
	subs      []*graph.Graph // aligned with comps; nil for trivial components
	arts      map[core.Options][]*Artifacts
	whole     map[core.Options]*Artifacts // whole-graph artifacts (connected inputs)
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
		c.lru.Remove(back)
	}
	return el
}

// Intern resolves g by content: it returns the resident graph with g's
// fingerprint and true, so the caller reaches that graph's memoized
// artifacts, or indexes g's own entry under the fingerprint and returns g
// and false. The content key lives and dies with the entry's LRU slot.
func (c *Cache) Intern(g *graph.Graph) (*graph.Graph, bool) {
	fp := graph.FingerprintOf(g)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.interned[fp]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).g, true
	}
	el := c.elementLocked(g)
	el.Value.(*cacheEntry).fp = &fp
	c.interned[fp] = el
	return g, false
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
	c.lru.Init()
}

// cacheable reports whether runs under opt may be served from a Cache. A
// caller-supplied operator (Operator or Multilevel.FinestOp) is an exact
// instance the caller wants driven (instrumented or preconditioned), while
// cached artifacts install their own shared operator, and a warm entry
// would hand back a solve this call's operator never drove. Such runs are
// served uncached, so the artifact maps key on operator-free options.
func cacheable(opt core.Options) bool {
	return opt.Operator == nil && opt.Multilevel.FinestOp == nil
}

// resolved is one graph's decomposition plus per-component artifacts for a
// specific spectral-options key. subs and arts are nil at trivial
// components (≤ 2 vertices).
type resolved struct {
	comps [][]int
	subs  []*graph.Graph
	arts  []*Artifacts
}

// extractAll decomposes g and extracts every nontrivial component subgraph
// on the worker pool — the uncached stage-1 work of Auto. st (may be nil)
// is the tier-2 store bound into the fresh artifacts.
func extractAll(g *graph.Graph, workers int, sopt core.Options, st store.Store) resolved {
	comps := graph.Components(g)
	r := resolved{
		comps: comps,
		subs:  make([]*graph.Graph, len(comps)),
		arts:  make([]*Artifacts, len(comps)),
	}
	runPool(workers, len(comps), func(ci int, ws *scratch.Workspace) {
		if len(comps[ci]) <= 2 {
			return
		}
		if len(comps[ci]) == g.N() {
			// A component spanning the whole graph is the graph itself
			// (members are sorted, so the relabeling is the identity): skip
			// the extraction copy and key the artifacts on g, letting the
			// cache share them with the whole-graph entry points.
			r.subs[ci] = g
			r.arts[ci] = newArtifacts(g, sopt, st)
			return
		}
		sub := &graph.Graph{}
		g.SubgraphInto(ws, sub, comps[ci])
		r.subs[ci] = sub
		r.arts[ci] = newArtifacts(sub, sopt, st)
	})
	return r
}

// resolve returns g's decomposition and artifacts for sopt, through the
// cache when one is configured and sopt is cacheable. A connected graph's
// single component uses the same Artifacts the whole-graph entry points
// (Session.Order, Session.Fiedler) memoize, so e.g. a SPECTRAL row and a
// later Auto run on the same connected graph share one eigensolve.
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
		for i, sub := range e.subs {
			if sub == g {
				r.arts[i] = e.wholeLocked(g, sopt, st) // may pre-date this run
			}
		}
		e.arts = map[core.Options][]*Artifacts{sopt: r.arts}
		return resolved{comps: e.comps, subs: e.subs, arts: r.arts}
	}
	arts, ok := e.arts[sopt]
	if !ok {
		if len(e.arts) >= maxArtifactOptionSets {
			e.arts = map[core.Options][]*Artifacts{}
		}
		arts = make([]*Artifacts, len(e.comps))
		for i, sub := range e.subs {
			switch {
			case sub == g:
				arts[i] = e.wholeLocked(g, sopt, st)
			case sub != nil:
				arts[i] = newArtifacts(sub, sopt, st)
			}
		}
		e.arts[sopt] = arts
	}
	return resolved{comps: e.comps, subs: e.subs, arts: arts}
}

// WholeIfConnected returns memoized whole-graph Artifacts when g is
// connected, nil otherwise (connectivity itself is memoized on the
// entry). This is the substrate of Session.Order and Session.Fiedler on
// connected inputs: the graph's own labeling (no component relabeling)
// with eigensolve, root and diameter reuse across calls. It also returns
// nil on a nil Cache and for options that are not cacheable, so callers
// fall back to their uncached path without checking either.
func (c *Cache) WholeIfConnected(g *graph.Graph, sopt core.Options) *Artifacts {
	if c == nil || !cacheable(sopt) {
		return nil
	}
	e := c.entry(g)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.connected == nil {
		conn := graph.IsConnected(g)
		e.connected = &conn
	}
	if !*e.connected {
		return nil
	}
	return e.wholeLocked(g, sopt, c.tier2())
}

// wholeLocked returns the entry's memoized whole-graph Artifacts for sopt,
// creating (and capacity-capping) as needed; st (may be nil) is bound into
// fresh artifacts. The caller holds e.mu. Both the whole-graph entry
// points and resolve's spanning-component path land here, which is what
// makes their eigensolves shared.
func (e *cacheEntry) wholeLocked(g *graph.Graph, sopt core.Options, st store.Store) *Artifacts {
	if a, ok := e.whole[sopt]; ok {
		return a
	}
	if e.whole == nil || len(e.whole) >= maxArtifactOptionSets {
		e.whole = map[core.Options]*Artifacts{}
	}
	a := newArtifacts(g, sopt, st)
	e.whole[sopt] = a
	return a
}
