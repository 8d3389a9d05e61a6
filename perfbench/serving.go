package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treemine/internal/core"
	"treemine/internal/phyloio"
	"treemine/internal/serve"
	"treemine/internal/store"
)

const (
	serveWhy = "Closed loop of 2 HTTP clients on a v4 index far larger than the 4,096-entry cache: Zipf-skewed support probes, 5% misses, 1% frequent listings; mining idle"

	serveDefaultTrees = 2000
	serveClients      = 2
	// serveRequests is each client's request count in one pass.
	serveRequests = 1000
	// zipfS skews support probes towards a few hot pairs.
	zipfS = 1.1
	// frequentLimit is the listing size of /v1/frequent probes.
	frequentLimit = 100
	// spanHeader carries a traced request's span to the server side.
	spanHeader = "X-Perfbench-Span"
	// probeQueries bounds the query sample the per-layer probes replay.
	probeQueries = 20000
	openTrials   = 20
	// warmPasses fill the cache and open the connections before timing.
	warmPasses = 5
)

type queryKind uint8

const (
	qSupport queryKind = iota
	qMiss
	qFrequent
)

// query is one request of the load, with what its answer is checked
// against: the canonical key of a support probe.
type query struct {
	kind queryKind
	key  core.Key
	path string
}

// clientLog is what one client saw in one pass. Bodies are appended to
// one pointer-free arena so the collector does not walk them.
type clientLog struct {
	queries []query
	status  []int
	ends    []int
	arena   []byte
	lat     []time.Duration
}

func (l *clientLog) body(i int) []byte {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.arena[start:l.ends[i]]
}

// serveWL is the serve-zipf workload.
type serveWL struct {
	size                  int
	seed                  int64
	input, v4Path, v3Path string
	sh                    *core.SupportShard
	backend               *serve.Backend
	srv                   *serve.Server
	httpSrv               *http.Server
	served                chan error
	base                  string
	client                *http.Client
	tr                    atomic.Pointer[tracer]

	// Load generation and the check oracle, built by prepare.
	rng      []*rand.Rand
	zipf     []*rand.Zipf
	pop      []core.Key
	labels   []string
	support  map[core.Key]int
	expected map[core.Key][]byte
	frequent []byte
	logs     []*clientLog
	openMS   []float64
	cache0   serve.CacheStats
}

func newServe(size int) workload {
	if size <= 0 {
		size = serveDefaultTrees
	}
	return &serveWL{size: size}
}

// setup writes the corpus, mines and compacts it to v4, opens the
// mapped backend and starts the daemon's handler on a loopback server.
func (w *serveWL) setup(dir string, seed int64) error {
	w.seed = seed
	w.input = filepath.Join(dir, "treebase.nwk")
	w.v4Path = filepath.Join(dir, "index.v4")
	w.v3Path = filepath.Join(dir, "index.shard")
	if err := writeTreeBASE(w.input, seed, w.size); err != nil {
		return err
	}
	src := phyloio.OpenTrees([]string{w.input}, nil)
	defer src.Close()
	sh, err := core.MineForestStreamShardCtx(context.Background(), src, core.DefaultForestOptions(),
		core.StreamConfig{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	w.sh = sh
	if err := store.CompactShardV4(w.v4Path, sh); err != nil {
		return err
	}
	w.backend, err = serve.OpenPath(w.v4Path)
	if err != nil {
		return err
	}
	w.srv = serve.New(w.backend, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	return nil
}

// handler wraps the daemon's handler: a request that carries a span
// header gets a serve.handler span under the client's request span.
func (w *serveWL) handler() http.Handler {
	h := w.srv.Handler()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(spanHeader)
		tr := w.tr.Load()
		if v == "" || tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.ParseInt(v, 10, 64)
		s := tr.begin("serve.handler", spanID(parent))
		h.ServeHTTP(rw, r)
		tr.end(s)
	})
}

// responses mirror the daemon's wire format; the oracle renders the
// answer it expects with them.
type supportResponse struct {
	L1      string    `json:"l1"`
	L2      string    `json:"l2"`
	Dist    core.Dist `json:"dist"`
	Support int       `json:"support"`
	Trees   int       `json:"trees"`
}

type pairJSON struct {
	L1      string    `json:"l1"`
	L2      string    `json:"l2"`
	Dist    core.Dist `json:"dist"`
	Support int       `json:"support"`
}

type frequentResponse struct {
	MinSup  int        `json:"minsup"`
	MaxDist core.Dist  `json:"maxdist"`
	Trees   int        `json:"trees"`
	Count   int        `json:"count"`
	Pairs   []pairJSON `json:"pairs"`
}

func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// prepare builds the oracle from the setup shard's Finalize(1) listing
// and the load generators, measures open time, and warms the cache and
// the connections with checked, untimed passes.
func (w *serveWL) prepare() error {
	listing := w.sh.Finalize(1)
	w.support = make(map[core.Key]int, len(listing))
	w.pop = make([]core.Key, len(listing))
	for i, p := range listing {
		w.support[p.Key] = p.Support
		w.pop[i] = p.Key
	}
	if len(w.pop) < 2 {
		return fmt.Errorf("index holds %d pairs, too few to load", len(w.pop))
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(w.pop), func(i, j int) { w.pop[i], w.pop[j] = w.pop[j], w.pop[i] })
	w.labels = w.sh.LocalLabels()
	w.expected = map[core.Key][]byte{}

	fr := frequentResponse{MinSup: 2, MaxDist: core.DistWild, Trees: w.sh.Trees(), Pairs: []pairJSON{}}
	for _, p := range listing {
		if p.Support < 2 {
			continue
		}
		fr.Count++
		if len(fr.Pairs) < frequentLimit {
			fr.Pairs = append(fr.Pairs, pairJSON{L1: p.Key.A, L2: p.Key.B, Dist: p.Key.D, Support: p.Support})
		}
	}
	var err error
	if w.frequent, err = marshalLine(fr); err != nil {
		return err
	}

	for c := 0; c < serveClients; c++ {
		r := rand.New(rand.NewSource(w.seed*7919 + int64(c) + 1))
		w.rng = append(w.rng, r)
		w.zipf = append(w.zipf, rand.NewZipf(r, zipfS, 1, uint64(len(w.pop)-1)))
		w.logs = append(w.logs, &clientLog{})
	}
	for i := 0; i < openTrials; i++ {
		t0 := time.Now()
		b, err := serve.OpenPath(w.v4Path)
		if err != nil {
			return err
		}
		w.openMS = append(w.openMS, float64(time.Since(t0).Nanoseconds())/1e6)
		b.Close()
	}
	w.nextQueries()
	for i := 0; i < warmPasses; i++ {
		if _, err := w.pass(nil, 0); err != nil {
			return err
		}
		if bad, err := w.check(); err != nil {
			return fmt.Errorf("warm-up pass: %d wrong answers: %w", bad, err)
		}
	}
	w.cache0 = w.srv.CacheStats()
	return nil
}

// nextQueries draws each client's queries for the next pass: 94%
// support probes on mined pairs at their mined distance, Zipf-skewed;
// 5% misses (random known labels at a random distance, or an unknown
// label); 1% frequent listings.
func (w *serveWL) nextQueries() {
	maxDist := int(core.DefaultForestOptions().MaxDist)
	for c, l := range w.logs {
		rng := w.rng[c]
		l.queries = l.queries[:0]
		for i := 0; i < serveRequests; i++ {
			var q query
			switch r := rng.Intn(100); {
			case r < 1:
				q = query{kind: qFrequent, path: "/v1/frequent?limit=" + strconv.Itoa(frequentLimit)}
			case r < 6:
				a := w.labels[rng.Intn(len(w.labels))]
				b := w.labels[rng.Intn(len(w.labels))]
				if rng.Intn(2) == 0 {
					b = "Unknown taxon " + strconv.Itoa(rng.Intn(1<<20))
				}
				q = query{kind: qMiss, key: core.NewKey(a, b, core.Dist(rng.Intn(maxDist+1)))}
			default:
				q = query{kind: qSupport, key: w.pop[w.zipf[c].Uint64()]}
			}
			if q.kind != qFrequent {
				q.path = "/v1/support?l1=" + url.QueryEscape(q.key.A) + "&l2=" + url.QueryEscape(q.key.B) + "&dist=" + q.key.D.String()
			}
			l.queries = append(l.queries, q)
		}
	}
}

// pass runs the closed loop: each client sends its queries one after
// another, waiting for every reply.
func (w *serveWL) pass(tr *tracer, root spanID) (passOut, error) {
	if tr != nil {
		w.tr.Store(tr)
	}
	var wg sync.WaitGroup
	for _, l := range w.logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			w.runClient(l, tr, root)
		}(l)
	}
	wg.Wait()
	out := passOut{}
	for _, l := range w.logs {
		out.ops += len(l.queries)
		out.lat = append(out.lat, l.lat...)
		for _, st := range l.status {
			if st == http.StatusOK {
				out.units++
			} else {
				out.failed++
			}
		}
	}
	return out, nil
}

func (w *serveWL) runClient(l *clientLog, tr *tracer, root spanID) {
	l.status, l.ends, l.arena, l.lat = l.status[:0], l.ends[:0], l.arena[:0], l.lat[:0]
	cs := tr.begin("bench.client", root)
	defer tr.end(cs)
	for _, q := range l.queries {
		rs := tr.begin("net.request", cs.id)
		t0 := time.Now()
		st, err := w.get(q.path, rs.id, l)
		lat := time.Since(t0)
		tr.end(rs)
		if err != nil {
			st = 0
		}
		l.status = append(l.status, st)
		l.ends = append(l.ends, len(l.arena))
		l.lat = append(l.lat, lat)
	}
}

// get sends one request and appends its body to the client's arena.
func (w *serveWL) get(path string, span spanID, l *clientLog) (int, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return 0, err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(int64(span), 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	for {
		if len(l.arena) == cap(l.arena) {
			l.arena = append(l.arena, 0)[:len(l.arena)]
		}
		n, err := resp.Body.Read(l.arena[len(l.arena):cap(l.arena)])
		l.arena = l.arena[:len(l.arena)+n]
		if err == io.EOF {
			return resp.StatusCode, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// expectedBody renders the answer the oracle expects for q.
func (w *serveWL) expectedBody(q query) ([]byte, error) {
	if q.kind == qFrequent {
		return w.frequent, nil
	}
	if b, ok := w.expected[q.key]; ok {
		return b, nil
	}
	b, err := marshalLine(supportResponse{L1: q.key.A, L2: q.key.B, Dist: q.key.D, Support: w.support[q.key], Trees: w.sh.Trees()})
	if err != nil {
		return nil, err
	}
	w.expected[q.key] = b
	return b, nil
}

// check compares every 200 body of the last pass with the oracle, then
// draws the next pass's queries.
func (w *serveWL) check() (int, error) {
	bad := 0
	var first error
	for _, l := range w.logs {
		for i, q := range l.queries {
			if l.status[i] != http.StatusOK {
				continue // already counted failed by the pass
			}
			want, err := w.expectedBody(q)
			if err != nil {
				return bad + 1, err
			}
			if got := l.body(i); !bytes.Equal(got, want) {
				bad++
				if first == nil {
					first = fmt.Errorf("%s: got %q, want %q", q.path, got, want)
				}
			}
		}
	}
	w.nextQueries()
	return bad, first
}

// layers replays a sample of the last queries through the layers below
// the socket: the mapped store probe, the backend on the mapped and on
// the decoded v3 shard, the frequent listing, and the handler into a
// recorder.
func (w *serveWL) layers(accts []*passAccount) (map[string]float64, error) {
	ctx := context.Background()
	out := map[string]float64{}
	var transport []float64
	for _, a := range accts {
		transport = append(transport, median(a.each["net.request"])*1e6)
	}
	out["net.transport_us"] = median(transport)
	cs := w.srv.CacheStats()
	if n := (cs.Hits - w.cache0.Hits) + (cs.Misses - w.cache0.Misses); n > 0 {
		out["serve.cache_hit_rate"] = float64(cs.Hits-w.cache0.Hits) / float64(n)
	}
	out["serve.cache_evictions"] = float64(cs.Evictions - w.cache0.Evictions)
	out["serve.open_ms"] = median(w.openMS)
	out["runtime.live_heap_peak_mib"] = liveHeapMiB()

	var probes, all []query
	for _, l := range w.logs {
		for _, q := range l.queries {
			all = append(all, q)
			if q.kind != qFrequent {
				probes = append(probes, q)
			}
		}
	}
	for len(probes) < probeQueries && len(probes) > 0 {
		probes = append(probes, probes...)
	}
	probes = probes[:min(len(probes), probeQueries)]

	m, err := store.OpenMapped(w.v4Path)
	if err != nil {
		return nil, err
	}
	out["store.mapped_support_ns"] = perOpNS(len(probes), func() {
		for _, q := range probes {
			m.Support(q.key.A, q.key.B, q.key.D)
		}
	})
	m.Close()
	backendNS := func(b *serve.Backend) (float64, error) {
		var ferr error
		ns := perOpNS(len(probes), func() {
			for _, q := range probes {
				if _, err := b.Support(ctx, q.key.A, q.key.B, q.key.D); err != nil && ferr == nil {
					ferr = err
				}
			}
		})
		return ns, ferr
	}
	if out["serve.backend_support_ns"], err = backendNS(w.backend); err != nil {
		return nil, err
	}
	if err := saveShard(w.v3Path, w.sh); err != nil {
		return nil, err
	}
	decoded, err := serve.OpenPath(w.v3Path)
	if err != nil {
		return nil, err
	}
	out["serve.backend_support_ns_decoded"], err = backendNS(decoded)
	decoded.Close()
	if err != nil {
		return nil, err
	}
	var freq []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, _, err := w.backend.Frequent(ctx, 2, core.DistWild, frequentLimit); err != nil {
			return nil, err
		}
		freq = append(freq, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out["serve.backend_frequent_us"] = median(freq)

	h := w.srv.Handler()
	var handler []float64
	for _, q := range all {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler probe %s: status %d", q.path, rec.Code)
		}
	}
	out["serve.handler_us"] = median(handler)
	return out, nil
}

// perOpNS runs f, which performs n operations, three times and returns
// the median nanoseconds per operation.
func perOpNS(n int, f func()) float64 {
	if n == 0 {
		return 0
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

func (w *serveWL) human(s *runStats) []humanMetric {
	lat := s.opLatencies()
	out := []humanMetric{
		{name: "setup_s", unit: "s", value: median(s.setup), samples: len(s.setup), note: "median of setups, corpus to listening daemon"},
		{name: "query_per_s", unit: "1/s", value: median(s.throughputs()), samples: len(s.plain), note: fmt.Sprintf("median over passes of %d requests, %d clients", serveClients*serveRequests, serveClients)},
		{name: "query_p50_us", unit: "us", value: median(lat) * 1e6, samples: len(lat)},
	}
	if p := tailPercentile(len(lat)); p > 50 {
		out = append(out, humanMetric{name: fmt.Sprintf("query_p%g_us", p), unit: "us", value: quantile(lat, p/100) * 1e6, samples: len(lat),
			note: fmt.Sprintf("%d samples beyond", int(float64(len(lat))*(100-p)/100))})
	}
	out = append(out, humanMetric{name: "open_ms", unit: "ms", value: median(w.openMS), samples: len(w.openMS), note: "serve.OpenPath on the v4 index"})
	return out
}

// close stops the loopback server and waits for it to return, then
// releases the backend.
func (w *serveWL) close() error {
	var errs []error
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, w.httpSrv.Shutdown(ctx))
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.backend != nil {
		errs = append(errs, w.backend.Close())
	}
	return errors.Join(errs...)
}
