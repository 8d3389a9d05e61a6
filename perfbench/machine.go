package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// machine is the fingerprint recorded with every result.
type machine struct {
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go"`
	Parallelism float64 `json:"effective_parallelism"`
}

func fingerprint() machine {
	return machine{
		CPU:         cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Parallelism: effectiveParallelism(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// effectiveParallelism is a calibration spin: the same CPU-bound loop
// runs on one goroutine, then on GOMAXPROCS goroutines at once, and the
// ratio says how many of those processors actually ran in parallel. A
// box whose two processors share one core's worth of time reads about 1.
// The median of three trials is reported.
func effectiveParallelism() float64 {
	p := runtime.GOMAXPROCS(0)
	trials := make([]float64, 3)
	for i := range trials {
		one := spin(1)
		all := spin(p)
		trials[i] = float64(p) * one.Seconds() / all.Seconds()
	}
	return median(trials)
}

// spinSink keeps the spin loop's result live.
var spinSink uint64

// spin runs n goroutines of a fixed xorshift loop and returns the wall
// time until all finish.
func spin(n int) time.Duration {
	const iters = 20_000_000
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed | 1
			for i := 0; i < iters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			mu.Lock()
			spinSink += x
			mu.Unlock()
		}(uint64(g + 1))
	}
	wg.Wait()
	return time.Since(t0)
}

// refNominal is the reference kernel's time on the nominal machine the
// result line's timings are scaled to. It is about what the kernel takes
// on a quiet 2-vCPU Xeon VM, so scaled and raw figures read alike there.
const refNominal = 40 * time.Millisecond

// refEvery is the least wall time between two reference samples.
const refEvery = 500 * time.Millisecond

// speedProbe tracks the machine's speed through a run. A shared host's
// speed drifts by a third over minutes, with the load of other guests;
// a fixed reference kernel, timed between setups and passes, drifts with
// it. Timings divided by the kernel's median time, times refNominal, no
// longer carry that drift, while a change to the program still moves
// them, since the kernel is this benchmark's own code.
type speedProbe struct {
	samples []float64 // reference kernel seconds
	last    time.Time
	table   map[uint64]uint32
	keys    []uint64
}

// refKeys is the reference kernel's key space. Its map fits the
// second-level cache, so the kernel follows the processor's speed and is
// not thrown about by other guests' memory traffic, which a larger map
// felt more than the workloads do.
const refKeys = 1 << 13

// refRounds is how often one sample repeats the kernel: together about
// refNominal on the nominal machine.
const refRounds = 32

func newSpeedProbe() *speedProbe {
	return &speedProbe{table: make(map[uint64]uint32, refKeys), keys: make([]uint64, 0, refKeys)}
}

// tick takes a reference sample when refEvery has passed since the
// last one, or always when force is set.
func (p *speedProbe) tick(force bool) {
	if !force && time.Since(p.last) < refEvery {
		return
	}
	t0 := time.Now()
	for i := 0; i < refRounds; i++ {
		p.kernel()
	}
	p.samples = append(p.samples, time.Since(t0).Seconds())
	p.last = time.Now()
}

// kernel is the reference work: counting xorshift keys in a hash map,
// then sorting the distinct keys. It reuses its map and slice, so it
// neither allocates nor depends on the garbage collector.
func (p *speedProbe) kernel() {
	clear(p.table)
	x := uint64(88172645463325252)
	for i := 0; i < 3*refKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.table[x%refKeys]++
	}
	p.keys = p.keys[:0]
	for k := range p.table {
		p.keys = append(p.keys, k)
	}
	slices.Sort(p.keys)
	spinSink += p.keys[len(p.keys)/2]
}

// refSeconds is the median reference sample.
func (p *speedProbe) refSeconds() float64 { return median(p.samples) }

// scale converts this run's wall time to the nominal machine's.
func (p *speedProbe) scale() float64 { return refNominal.Seconds() / p.refSeconds() }
