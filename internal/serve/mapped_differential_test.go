package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"testing"

	"treemine/internal/core"
	"treemine/internal/store"
)

// The mapped differential harness: a server over a compacted v4 file
// must be byte-for-byte indistinguishable from a server over the
// decoded source it was compacted from, on every /v1/* endpoint. Both
// servers are driven in lockstep with the identical request sequence,
// so even the cache counters in /v1/stats must evolve identically —
// the compaction changes the storage layout, never the observable
// service.

// backendField and capabilityField normalize the legitimate
// differences between the two servers: the stats backend
// discriminator and the capability flags. A mapped backend really
// does answer fewer query shapes than the index it was compacted
// from — the 501 checks at the end of each test pin that — so the
// stats advertisement is allowed to differ too.
var (
	backendField    = regexp.MustCompile(`"backend":"(index|shard|mapped)"`)
	capabilityField = regexp.MustCompile(`"supports_(tdist|concrete_dist|wildcard)":(true|false)`)
)

func normalizeBackend(body string) string {
	body = backendField.ReplaceAllString(body, `"backend":"_"`)
	return capabilityField.ReplaceAllString(body, `"supports_$1":"_"`)
}

// getLockstep fires the same query at the decoded and the mapped
// server and requires equal statuses and equal bodies modulo the
// backend discriminator. Each query runs twice, so the cache-miss and
// cache-hit paths are both compared.
func getLockstep(t *testing.T, decoded, mapped *httptest.Server, path string) {
	t.Helper()
	for _, pass := range []string{"miss", "hit"} {
		ds, db := get(t, decoded, path)
		ms, mb := get(t, mapped, path)
		if ds != ms {
			t.Fatalf("%s (%s pass): decoded status %d, mapped status %d", path, pass, ds, ms)
		}
		if normalizeBackend(db) != normalizeBackend(mb) {
			t.Fatalf("%s (%s pass): mapped backend diverged\n--- decoded ---\n%s--- mapped ---\n%s",
				path, pass, db, mb)
		}
	}
}

// mappedPairFromShard compacts sh to a v4 file and opens both backends:
// the decoded shard (via the v3 bytes) and the mapped file (via
// OpenPath, the daemon's route).
func mappedPairFromShard(t *testing.T, sh *core.SupportShard) (decoded, mapped *httptest.Server) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.SaveShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	db, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := store.CompactShardV4(path, sh); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	if mb.Kind() != "mapped" {
		t.Fatalf("OpenPath(v4) kind = %q, want mapped", mb.Kind())
	}
	// Large enough that nothing evicts: the two backends pack different
	// symbol IDs into cache keys (intern order vs sorted rank), so LRU
	// shard placement — and therefore eviction timing — is allowed to
	// differ. With evictions out of the picture, the hit/miss/entry
	// counters in /v1/stats must agree exactly.
	cfg := Config{CacheEntries: 1 << 14}
	_, dts := newTestServer(t, db, cfg)
	_, mts := newTestServer(t, mb, cfg)
	return dts, mts
}

// shardQueryMix drives a randomized endpoint mix through both servers
// in lockstep. Every query class a shard-shaped backend can see is
// covered: concrete and wildcard support (valid or 501 depending on
// ignoreDist, identical on both), unknown labels, distances past
// MaxDist and past D(14), frequent listings with limits and
// maxdist filters, stats with live cache counters, and tdist (501 on
// both — aggregates have no per-tree item sets).
func shardQueryMix(t *testing.T, seed int64, labels []string, maxDist core.Dist, decoded, mapped *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randLabel := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("unknown-%d", rng.Intn(4))
		}
		return labels[rng.Intn(len(labels))]
	}
	for i := 0; i < 250; i++ {
		switch rng.Intn(5) {
		case 0, 1: // support: concrete distances across and past the mined range
			q := url.Values{"l1": {randLabel()}, "l2": {randLabel()}}
			d := core.Dist(rng.Intn(int(maxDist) + 8))
			q.Set("dist", d.String())
			getLockstep(t, decoded, mapped, "/v1/support?"+q.Encode())
		case 2: // support: wildcard (both answer, or both 501)
			q := url.Values{"l1": {randLabel()}, "l2": {randLabel()}, "dist": {"*"}}
			getLockstep(t, decoded, mapped, "/v1/support?"+q.Encode())
		case 3: // frequent: minsup sweep with filters and limits
			q := url.Values{"minsup": {fmt.Sprint(1 + rng.Intn(6))}}
			if rng.Intn(2) == 0 {
				q.Set("maxdist", core.Dist(rng.Intn(int(maxDist)+2)).String())
			}
			if rng.Intn(2) == 0 {
				q.Set("limit", fmt.Sprint(1+rng.Intn(20)))
			}
			getLockstep(t, decoded, mapped, "/v1/frequent?"+q.Encode())
		case 4: // stats (cache counters included) and tdist (501 on both)
			getLockstep(t, decoded, mapped, "/v1/stats")
			getLockstep(t, decoded, mapped, "/v1/tdist?t1=a&t2=b")
		}
	}
}

// TestMappedDifferentialShard: a shard whose v4 compaction takes the
// packed section (MaxDist within D(14)) vs that compaction.
func TestMappedDifferentialShard(t *testing.T) {
	trees, _ := diffForest(t, 41, 20)
	maxD := core.D(3)
	sh := core.NewSupportShard(core.ForestOptions{
		Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2,
	})
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	decoded, mapped := mappedPairFromShard(t, sh)
	shardQueryMix(t, 42, diffLabels(), maxD, decoded, mapped)
}

// TestMappedDifferentialShardGeneric: a shard mined past D(14) compacts
// into the string-keyed v4 section; its probes — including distances
// past 7 and past the shard's own MaxDist — must agree with the decoded
// shard everywhere.
func TestMappedDifferentialShardGeneric(t *testing.T) {
	trees := deepChainForest(t, 43, 14)
	maxD := core.D(22)
	sh := core.NewSupportShard(core.ForestOptions{
		Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2,
	})
	deep := 0
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	for _, p := range sh.Finalize(1) {
		if p.Key.D > core.D(14) {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("fixture mined no items past D(14); the generic section is untested")
	}
	decoded, mapped := mappedPairFromShard(t, sh)
	shardQueryMix(t, 44, diffLabels(), maxD, decoded, mapped)
}

// TestMappedDifferentialShardIgnoreDist: distance-insensitive mining
// keys every pair at DistWild; wildcard probes answer and concrete ones
// 501 — identically on both sides.
func TestMappedDifferentialShardIgnoreDist(t *testing.T) {
	trees, _ := diffForest(t, 45, 18)
	maxD := core.D(4)
	sh := core.NewSupportShard(core.ForestOptions{
		Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2, IgnoreDist: true,
	})
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	decoded, mapped := mappedPairFromShard(t, sh)
	shardQueryMix(t, 46, diffLabels(), maxD, decoded, mapped)
}

// TestMappedDifferentialIndex: a v1/v2 index vs its v4 compaction on
// the queries whose semantics survive compaction — concrete-distance
// support, frequent listings, stats. Wildcard support and tree distance
// need the per-tree item sets the aggregate no longer has, so on the
// mapped side they must answer clean 501s (asserted after the lockstep
// run: error handling differs in cache effects, so comparing stats
// afterwards would diverge).
func TestMappedDifferentialIndex(t *testing.T) {
	trees, names := diffForest(t, 47, 22)
	opts := core.Options{MaxDist: core.D(4), MinOccur: 1}
	ix, err := store.Build(trees, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := openBackend(t, ix)
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := store.CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	cfg := Config{CacheEntries: 1 << 14} // evictions off: see mappedPairFromShard
	_, decoded := newTestServer(t, db, cfg)
	_, mapped := newTestServer(t, mb, cfg)

	labels := diffLabels()
	rng := rand.New(rand.NewSource(48))
	randLabel := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("unknown-%d", rng.Intn(4))
		}
		return labels[rng.Intn(len(labels))]
	}
	for i := 0; i < 250; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			q := url.Values{"l1": {randLabel()}, "l2": {randLabel()}}
			q.Set("dist", core.Dist(rng.Intn(int(opts.MaxDist)+6)).String())
			getLockstep(t, decoded, mapped, "/v1/support?"+q.Encode())
		case 2:
			q := url.Values{"minsup": {fmt.Sprint(1 + rng.Intn(5))}}
			if rng.Intn(2) == 0 {
				q.Set("limit", fmt.Sprint(1+rng.Intn(15)))
			}
			getLockstep(t, decoded, mapped, "/v1/frequent?"+q.Encode())
		case 3:
			getLockstep(t, decoded, mapped, "/v1/stats")
		}
	}

	// Outside the aggregate's semantics: the mapped side must 501, never
	// answer wrong numbers.
	if st, _ := get(t, mapped, "/v1/support?l1=a&l2=b&dist=*"); st != 501 {
		t.Fatalf("mapped wildcard support status = %d, want 501", st)
	}
	if st, _ := get(t, mapped, "/v1/tdist?t1="+url.QueryEscape(names[0])+"&t2="+url.QueryEscape(names[1])); st != 501 {
		t.Fatalf("mapped tdist status = %d, want 501", st)
	}
	// The decoded index still answers both.
	if st, _ := get(t, decoded, "/v1/tdist?t1="+url.QueryEscape(names[0])+"&t2="+url.QueryEscape(names[1])); st != 200 {
		t.Fatalf("decoded tdist status = %d, want 200", st)
	}
}
