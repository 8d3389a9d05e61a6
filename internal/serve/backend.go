// Package serve turns a mined cousin-pair index into a long-running
// query service: a Backend loads a store file read-only at startup, a
// Server answers concurrent HTTP+JSON queries over it (pair support,
// frequent-pair listing, tree distance/similarity, index stats) through
// a sharded LRU result cache keyed on packed IKeys. The paper's mining
// pass is the expensive step; this package is the "index once, query
// forever" half of the split.
//
// Every query the server answers is differential-tested against the
// in-process library answer on the same loaded data — the server is a
// transport, never a second implementation of the semantics.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"treemine/internal/core"
	"treemine/internal/faults"
	"treemine/internal/store"
)

// Errors the backend maps to non-500 HTTP statuses.
var (
	// ErrUnknownTree reports a tree-distance query naming a tree the
	// index does not contain (HTTP 404).
	ErrUnknownTree = errors.New("serve: unknown tree")
	// ErrUnsupported reports a query the loaded backend cannot answer —
	// e.g. tree distance against a v3 shard, which aggregates support
	// without keeping per-tree item sets (HTTP 501).
	ErrUnsupported = errors.New("serve: query not supported by this backend")
)

// ctxCheckEvery is how many loop iterations a scan runs between request
// context checks; scans over the loaded index are the only per-request
// work proportional to index size.
const ctxCheckEvery = 4096

// Backend answers queries from one immutably loaded index. After Open
// returns, nothing mutates the backend, the wrapped index, or the
// symbol table — which is what makes a Backend safe for any number of
// concurrent readers with no locking.
type Backend struct {
	kind string // "index", "shard", or "mapped"

	// syms interns every label the loaded data mentions; it is used
	// read-only (Lookup) after load, for cache-key packing and, in shard
	// mode, support lookups.
	syms *core.Symbols

	// full is the complete frequent-pair listing at minsup 1, sorted by
	// decreasing support then key. Frequent filters it, which matches
	// store.Index.Frequent / SupportShard.Finalize for every minsup
	// because filtering preserves the shared total order.
	full []core.FrequentPair

	trees int
	items int

	// Index mode: the loaded index, its per-tree item sets, and tree
	// name → entry position (first occurrence wins on duplicates).
	ix    *store.Index
	sets  []core.ItemSet
	names map[string]int

	// Shard mode: support counts keyed by packed IKey, exactly as
	// core.SupportShard keeps them, plus the shard's mining options.
	// shOpts also carries the mining options in mapped mode, so the
	// aggregate capability rules below read one field for both.
	sup    map[core.IKey]int64
	shOpts core.ForestOptions

	// Mapped mode: a v4 file queried in place. No syms, no full listing,
	// no maps — support probes binary-search the mapped bytes and
	// frequent listings walk the file's support-descending permutation,
	// so opening is O(1) and resident memory is whatever the kernel has
	// paged in.
	m *store.Mapped
}

// faultReader injects the serve/load failpoint into every read, so the
// chaos suite can simulate a mid-load I/O failure.
type faultReader struct{ r io.Reader }

func (fr faultReader) Read(p []byte) (int, error) {
	if err := faults.Hit(faults.ServeLoad); err != nil {
		return 0, err
	}
	return fr.r.Read(p)
}

// Open reads a store file and builds the matching backend: a v1/v2
// index file (cousindex build) serves every endpoint; a v3 shard
// checkpoint (cousinmine -checkpoint) serves support, frequent, and
// stats — a shard holds aggregate counts, not per-tree item sets, so
// tree-distance queries report ErrUnsupported. A v4 compacted file
// (cousindex compact) serves the same aggregate endpoints; Open has
// only a reader, so the bytes are held in memory — prefer OpenPath,
// which memory-maps v4 files instead.
func Open(r io.Reader) (*Backend, error) {
	br := bufio.NewReader(faultReader{r})
	head, err := br.Peek(len("TREEMINEIDX3"))
	if err != nil {
		return nil, fmt.Errorf("serve: read index header: %w", err)
	}
	switch string(head) {
	case "TREEMINEIDX4":
		raw, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("serve: read v4 index: %w", err)
		}
		m, err := store.OpenMappedBytes(raw)
		if err != nil {
			return nil, err
		}
		return newMappedBackend(m), nil
	case "TREEMINEIDX3":
		sh, err := store.LoadShard(br)
		if err != nil {
			return nil, err
		}
		return newShardBackend(sh), nil
	}
	ix, err := store.Load(br)
	if err != nil {
		return nil, err
	}
	return newIndexBackend(ix), nil
}

// OpenPath opens the store file at path, auto-detecting the format by
// magic: v4 files are memory-mapped (store.OpenMapped — O(1) startup,
// zero-copy queries), everything else goes through Open's decode path.
// Close the returned backend when done serving.
func OpenPath(path string) (*Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [len("TREEMINEIDX4")]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("serve: read index header: %w", err)
	}
	if string(head[:]) == "TREEMINEIDX4" {
		// The mmap path does no incremental reads, so give the serve/load
		// failpoint its one shot at the open instead.
		if err := faults.Hit(faults.ServeLoad); err != nil {
			return nil, err
		}
		m, err := store.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		return newMappedBackend(m), nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return Open(f)
}

// Close releases backend resources — the mmap in mapped mode, nothing
// elsewhere. No queries may be in flight or issued afterwards.
func (b *Backend) Close() error {
	if b.m != nil {
		return b.m.Close()
	}
	return nil
}

// newIndexBackend wraps a loaded (or built) store.Index.
func newIndexBackend(ix *store.Index) *Backend {
	b := &Backend{
		kind:  "index",
		syms:  core.NewSymbols(),
		trees: ix.NumTrees(),
		ix:    ix,
		sets:  ix.ItemSets(),
		names: make(map[string]int, len(ix.Entries)),
	}
	for i, e := range ix.Entries {
		if _, dup := b.names[e.Name]; !dup {
			b.names[e.Name] = i
		}
		b.items += len(e.Items)
		for k := range e.Items {
			b.syms.Intern(k.A)
			b.syms.Intern(k.B)
		}
	}
	b.full = ix.Frequent(1)
	return b
}

// newShardBackend wraps a loaded v3 support shard. The snapshot's label
// table is re-interned in order, so snapshot symbol IDs and backend
// symbol IDs coincide and packed counts can be probed directly.
func newShardBackend(sh *core.SupportShard) *Backend {
	opts, trees, labels, items := sh.Snapshot()
	b := &Backend{
		kind:   "shard",
		syms:   core.NewSymbols(),
		trees:  trees,
		shOpts: opts,
	}
	for _, l := range labels {
		b.syms.Intern(l)
	}
	b.sup = make(map[core.IKey]int64, len(items))
	for _, it := range items {
		b.sup[core.NewIKey(it.A, it.B, it.D)] += it.N
	}
	b.full = sh.Finalize(1)
	return b
}

// newMappedBackend wraps an opened v4 file. Nothing is decoded or
// copied: the backend is a thin capability layer over the mapped
// accessors, with the same aggregate semantics as a shard backend.
func newMappedBackend(m *store.Mapped) *Backend {
	return &Backend{
		kind:   "mapped",
		trees:  m.Trees(),
		items:  int(m.Items()),
		shOpts: m.Options(),
		m:      m,
	}
}

// Kind reports which store format backs the server: "index", "shard",
// or "mapped" (a memory-mapped v4 file).
func (b *Backend) Kind() string { return b.kind }

// Trees returns the number of trees the loaded data covers.
func (b *Backend) Trees() int { return b.trees }

// Support returns the number of trees containing the label pair at
// distance d (DistWild: at any distance). Index mode answers both forms
// from the per-tree item sets, exactly as store.Index.Support does. A
// shard only holds the distance form it was mined with: a
// distance-keyed shard cannot answer wildcard probes (a tree containing
// the pair at two distances would be double-counted) and an IgnoreDist
// shard cannot answer concrete ones — both report ErrUnsupported.
func (b *Backend) Support(ctx context.Context, l1, l2 string, d core.Dist) (int, error) {
	if b.ix != nil {
		if !d.IsWild() {
			return b.ix.Support(l1, l2, d), nil
		}
		// The wildcard probe scans every per-tree item set (the same
		// loop as core.SupportOf), so it honors the request deadline.
		n := 0
		for i, s := range b.sets {
			if i%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if _, ok := s.MinDistOf(l1, l2); ok {
				n++
			}
		}
		return n, nil
	}
	if d.IsWild() != b.shOpts.IgnoreDist {
		if b.shOpts.IgnoreDist {
			return 0, fmt.Errorf("%w: shard was mined distance-insensitively (use dist=*)", ErrUnsupported)
		}
		return 0, fmt.Errorf("%w: wildcard support is not derivable from a distance-keyed shard", ErrUnsupported)
	}
	if b.m != nil {
		if !d.IsWild() && !b.m.Generic() && d > b.shOpts.MaxDist {
			// The true count is 0, and a probe past a packed v4 file's
			// 4-bit distance field would read some other pair's count.
			// (A generic file compares distances as integers, so its
			// lookup is total.)
			return 0, nil
		}
		return int(b.m.Support(l1, l2, d)), nil
	}
	if d > min(b.shOpts.MaxDist, core.MaxPackedDist) {
		// Nothing was mined past either bound, so the true count is 0 —
		// and a packed probe past MaxPackedDist would overflow IKey's
		// distance field and read some other pair's count (parseDist
		// admits distances up to 1<<16 halves).
		return 0, nil
	}
	a, ok1 := b.syms.Lookup(l1)
	bb, ok2 := b.syms.Lookup(l2)
	if !ok1 || !ok2 {
		return 0, nil
	}
	return int(b.sup[core.NewIKey(a, bb, d)]), nil
}

// Frequent returns the pairs with support ≥ minSup whose distance
// passes the maxDist filter, in the shared order (decreasing support,
// then key), truncated to limit when limit > 0. total counts the
// matches before truncation. A DistWild maxDist means no filter;
// wildcard-distance pairs (from IgnoreDist data) pass every filter,
// since they carry no concrete distance to test.
func (b *Backend) Frequent(ctx context.Context, minSup int, maxDist core.Dist, limit int) (pairs []core.FrequentPair, total int, err error) {
	pairs = []core.FrequentPair{}
	if b.m != nil {
		// Walk the file's support-descending permutation: the base record
		// order is CompareKeys order, so a stable support sort over it is
		// exactly the Finalize(1) total order the decoded backends use.
		// Supports along the walk are non-increasing, so the minsup
		// cutoff ends the scan; pairs only materialize when listed.
		for i, n := 0, b.m.Len(); i < n; i++ {
			if i%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
			}
			rec := b.m.PermAt(i)
			if b.m.SupportAt(rec) < int64(minSup) {
				break
			}
			if !maxDist.IsWild() {
				if d := b.m.DistAt(rec); !d.IsWild() && d > maxDist {
					continue
				}
			}
			total++
			if limit <= 0 || len(pairs) < limit {
				pairs = append(pairs, b.m.PairAt(rec))
			}
		}
		return pairs, total, nil
	}
	for i, p := range b.full {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if p.Support < minSup {
			continue
		}
		if !maxDist.IsWild() && !p.Key.D.IsWild() && p.Key.D > maxDist {
			continue
		}
		total++
		if limit <= 0 || len(pairs) < limit {
			pairs = append(pairs, p)
		}
	}
	return pairs, total, nil
}

// resolve maps a tree name to its entry index.
func (b *Backend) resolve(name string) (int, error) {
	i, ok := b.names[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTree, name)
	}
	return i, nil
}

// TDist computes the paper's cousin-based tree distance (Eq. 6, under
// the requested variant) and similarity score (Eq. 4) between two named
// trees, from the item sets mined at index build time — the library's
// core.TDistItems and core.SimItems on the stored sets. Shard backends
// report ErrUnsupported.
func (b *Backend) TDist(t1, t2 string, v core.Variant) (tdist, sim float64, err error) {
	if b.ix == nil {
		return 0, 0, fmt.Errorf("%w: tree distance needs per-tree item sets (serve an index, not a shard)", ErrUnsupported)
	}
	i, err := b.resolve(t1)
	if err != nil {
		return 0, 0, err
	}
	j, err := b.resolve(t2)
	if err != nil {
		return 0, 0, err
	}
	s1, s2 := b.sets[i], b.sets[j]
	return core.TDistItems(s1, s2, v), core.SimItems(s1, s2), nil
}

// Stats describes the loaded data; every field is a pure function of
// the store file, so stats responses are byte-stable across runs.
//
// The supports_* fields advertise which query shapes this backend can
// answer, so clients discover the mapped/shard limitations (no tree
// distance without per-tree item sets; one support keying, concrete or
// wildcard, per shard) from one stats call instead of probing
// endpoints for 501s.
type Stats struct {
	Backend    string    `json:"backend"`
	Trees      int       `json:"trees"`
	Labels     int       `json:"labels"`
	Pairs      int       `json:"pairs"`
	Items      int       `json:"items"`
	MaxDist    core.Dist `json:"maxdist"`
	MinOccur   int       `json:"minoccur"`
	IgnoreDist bool      `json:"ignoredist"`
	// SupportsTDist: /v1/tdist works (index backends only — tree
	// distance needs the per-tree item sets).
	SupportsTDist bool `json:"supports_tdist"`
	// SupportsConcreteDist: /v1/support with a concrete dist works.
	SupportsConcreteDist bool `json:"supports_concrete_dist"`
	// SupportsWildcard: /v1/support with dist=* (or omitted) works.
	SupportsWildcard bool `json:"supports_wildcard"`
}

// Stats returns the backend's description: tree and label counts, the
// number of distinct support entries (Pairs), the total per-tree items
// (Items, index mode only), and the mining parameters.
func (b *Backend) Stats() Stats {
	st := Stats{
		Backend: b.kind,
		Trees:   b.trees,
		Items:   b.items,
		// Mirrors the Support/TDist dispatch exactly: index backends
		// answer everything; shard and mapped backends answer only the
		// keying they were mined under, and never tree distance.
		SupportsTDist:        b.ix != nil,
		SupportsConcreteDist: b.ix != nil || !b.shOpts.IgnoreDist,
		SupportsWildcard:     b.ix != nil || b.shOpts.IgnoreDist,
	}
	switch {
	case b.m != nil:
		st.Labels = b.m.NumSymbols()
		st.Pairs = b.m.Len()
		st.MaxDist = b.shOpts.MaxDist
		st.MinOccur = b.shOpts.MinOccur
		st.IgnoreDist = b.shOpts.IgnoreDist
	case b.ix != nil:
		st.Labels = b.syms.Len()
		st.Pairs = len(b.full)
		st.MaxDist = b.ix.Options.MaxDist
		st.MinOccur = b.ix.Options.MinOccur
	default:
		st.Labels = b.syms.Len()
		st.Pairs = len(b.full)
		st.MaxDist = b.shOpts.MaxDist
		st.MinOccur = b.shOpts.MinOccur
		st.IgnoreDist = b.shOpts.IgnoreDist
	}
	return st
}

// supportCacheKey packs a support probe into a cache key: the pair's
// interned IKey. Probes naming labels the index never saw, or distances
// beyond the packed range, are not cacheable (they also cannot collide
// with any cached answer, which is the invariant that matters).
func (b *Backend) supportCacheKey(l1, l2 string, d core.Dist) (CacheKey, bool) {
	if d > core.MaxPackedDist {
		return CacheKey{}, false
	}
	var a, bb uint32
	var ok1, ok2 bool
	if b.m != nil {
		// Mapped mode has no intern table; label ranks in the sorted
		// symbol section are just as collision-free within one backend.
		a, ok1 = b.m.LookupSymbol(l1)
		bb, ok2 = b.m.LookupSymbol(l2)
	} else {
		a, ok1 = b.syms.Lookup(l1)
		bb, ok2 = b.syms.Lookup(l2)
	}
	if !ok1 || !ok2 {
		return CacheKey{}, false
	}
	return CacheKey{Kind: kindSupport, K1: uint64(core.NewIKey(a, bb, d))}, true
}

// tdistCacheKey packs a tree-distance query: the two entry indices (in
// request order, matching the response echo) and the variant.
func (b *Backend) tdistCacheKey(t1, t2 string, v core.Variant) (CacheKey, bool) {
	i, ok1 := b.names[t1]
	j, ok2 := b.names[t2]
	if !ok1 || !ok2 {
		return CacheKey{}, false
	}
	return CacheKey{
		Kind: kindTDist,
		K1:   uint64(uint32(i))<<32 | uint64(uint32(j)),
		K2:   uint64(v),
	}, true
}

// frequentCacheKey packs a frequent listing query. Parse bounds keep
// every component within its packed width.
func frequentCacheKey(q FrequentQuery) CacheKey {
	return CacheKey{
		Kind: kindFrequent,
		K1:   uint64(q.MinSup),
		K2:   uint64(uint32(q.MaxDist+1))<<32 | uint64(uint32(q.Limit)),
	}
}
