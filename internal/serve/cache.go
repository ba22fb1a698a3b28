package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
)

// domainProgs is one knowledge base compiled once: every dataset of
// the domain — named or inline, across every request — shares these
// compiled rule programs and their Rete templates.
type domainProgs struct {
	once  sync.Once
	kb    *spam.KB
	progs *spam.Programs
	err   error
}

func (d *domainProgs) get(build func() *spam.KB) (*spam.KB, *spam.Programs, error) {
	d.once.Do(func() {
		d.kb = build()
		d.progs, d.err = spam.BuildPrograms(d.kb)
	})
	return d.kb, d.progs, d.err
}

// datasetCache shares interpretation state across requests at the two
// levels that dominate request setup cost:
//
//   - compiled Programs per knowledge base (airport, suburban),
//   - a *spam.Dataset (RegionStore: derived geometry, seed-WM and
//     geometry memo caches) per scene.
//
// Named scenes (SF/DC/MOFF) are pinned for the server's lifetime.
// Inline scenes land in an LRU bounded by total cached region count,
// so a client spamming distinct scenes cannot grow server memory
// without bound — past the cap, least recently used scenes are
// evicted (and rebuilt on re-arrival). Eviction counts surface in
// /stats.
type datasetCache struct {
	airport  domainProgs
	suburban domainProgs

	mu         sync.Mutex
	named      map[string]*spam.Dataset
	lru        *list.List // of *cacheEntry; front = most recent
	byKey      map[string]*list.Element
	regions    int // total regions across cached inline scenes
	capRegions int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key     string
	ds      *spam.Dataset
	regions int
}

func newDatasetCache(capRegions int) *datasetCache {
	return &datasetCache{
		named:      map[string]*spam.Dataset{},
		lru:        list.New(),
		byKey:      map[string]*list.Element{},
		capRegions: capRegions,
	}
}

// programs returns the domain's shared KB and compiled programs.
func (c *datasetCache) programs(d scene.Domain) (*spam.KB, *spam.Programs, error) {
	switch d {
	case scene.Airport:
		return c.airport.get(spam.AirportKB)
	case scene.Suburban:
		return c.suburban.get(spam.SuburbanKB)
	default:
		return nil, nil, fmt.Errorf("serve: unknown domain %q", d)
	}
}

// dataset resolves the scene a request runs on: the named one, or the
// one it carries.
func (c *datasetCache) dataset(req *Request) (*spam.Dataset, error) {
	if req.Scene != "" {
		return c.namedDataset(req.Scene)
	}
	return c.inlineDataset(req.Inline)
}

// namedDataset returns the pinned dataset for SF, DC or MOFF,
// building it (over the shared airport programs) on first use.
func (c *datasetCache) namedDataset(name string) (*spam.Dataset, error) {
	c.mu.Lock()
	if ds, ok := c.named[name]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return ds, nil
	}
	c.mu.Unlock()

	p, ok := scene.ParamsByName(name)
	if !ok {
		return nil, fmt.Errorf("serve: unknown dataset %q (want SF, DC or MOFF)", name)
	}
	kb, progs, err := c.programs(scene.Airport)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	ds := spam.NewDatasetWith(scene.Generate(p), kb, progs)

	c.mu.Lock()
	defer c.mu.Unlock()
	// Two requests may have built concurrently; first write pins.
	if prior, ok := c.named[name]; ok {
		return prior, nil
	}
	c.named[name] = ds
	return ds, nil
}

// inlineKey is the cache identity of an inline scene: a SHA-256 of its
// decoded fields, so byte-different requests describing the same scene
// share one dataset. Strings go in behind their length, lists behind
// their length and whether they are nil (JSON writes null for a nil
// list, not []), IDs as varints and every number as its float64 bits.
// That parts scenes exactly as a digest of their JSON encoding would:
// a body decodes only to finite floats and valid UTF-8, and
// encoding/json writes both injectively, -0 included.
func inlineKey(is *InlineScene) string {
	h := sha256.New()
	b := make([]byte, 0, 1024)
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	num := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	str(is.Name)
	str(is.Domain)
	num(is.W)
	num(is.H)
	b = strconv.AppendBool(binary.AppendUvarint(b, uint64(len(is.Regions))), is.Regions == nil)
	for _, r := range is.Regions {
		b = binary.AppendVarint(b, int64(r.ID))
		num(r.Intensity)
		num(r.Texture)
		str(r.Kind)
		b = strconv.AppendBool(binary.AppendUvarint(b, uint64(len(r.Poly))), r.Poly == nil)
		for _, p := range r.Poly {
			num(p[0])
			num(p[1])
		}
		h.Write(b) // a region at a time: b holds at most the largest one
		b = b[:0]
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(b[:0]))
}

// inlineDataset returns (building and caching as needed) the dataset
// of an inline scene.
func (c *datasetCache) inlineDataset(is *InlineScene) (*spam.Dataset, error) {
	key := inlineKey(is)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		ds := el.Value.(*cacheEntry).ds
		c.mu.Unlock()
		c.hits.Add(1)
		return ds, nil
	}
	c.mu.Unlock()

	s, err := is.toScene()
	if err != nil {
		return nil, err
	}
	kb, progs, err := c.programs(s.Domain)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	ds := spam.NewDatasetWith(s, kb, progs)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Lost a build race; adopt the cached copy.
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).ds, nil
	}
	n := len(s.Regions)
	if n > c.capRegions {
		// Bigger than the whole cache: serve it, never cache it.
		return ds, nil
	}
	for c.regions+n > c.capRegions {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.byKey, ev.key)
		c.regions -= ev.regions
		c.evictions.Add(1)
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, ds: ds, regions: n})
	c.regions += n
	return ds, nil
}

// CacheStats is the /stats view of the dataset cache.
type CacheStats struct {
	NamedScenes  int   `json:"namedScenes"`
	InlineScenes int   `json:"inlineScenes"`
	Regions      int   `json:"regions"` // cached inline regions (the size cap's unit)
	CapRegions   int   `json:"capRegions"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
}

func (c *datasetCache) stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		NamedScenes:  len(c.named),
		InlineScenes: c.lru.Len(),
		Regions:      c.regions,
		CapRegions:   c.capRegions,
	}
	c.mu.Unlock()
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	st.Evictions = c.evictions.Load()
	return st
}
