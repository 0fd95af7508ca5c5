package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"armbar/internal/cellcache"
	"armbar/internal/explore"
	"armbar/internal/metrics"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

// tracer collects the per-layer numbers of a traced run: spans the
// benchmark records around its calls into each layer (corpus
// generation, cache Get/Put, pool cells, fuzz cases), the records RunInstrumented
// returns, the program's own counters (sim, explore, runner), and a
// CPU profile. Nothing here is installed during measured passes.
type tracer struct {
	reg     *metrics.Registry // sim, explore and pool counters of the traced passes
	profile bytes.Buffer

	mu        sync.Mutex
	queued    []time.Time          // submit times of cells no worker has picked up, FIFO
	running   map[uint64]cellStart // worker goroutine id -> its current cell
	queueWait []float64            // seconds
	service   []float64            // seconds
	inFuzz    bool                 // cells started now are fuzz cases
	cases     []float64            // service seconds of the fuzz-case cells
	gens      []float64            // seconds per corpus generation
	exps      map[string][]float64 // seconds per cold experiment generation
	expCells  int                  // pool cells the cold experiment generations ran

	getCalls, hits, putCalls, putBytes atomic.Uint64
	getNs, putNs                       atomic.Int64
}

// cellStart is when a running cell started, and whether it is a fuzz
// case. It is noted at the start because a cell's CellDone can arrive
// after the call that submitted it has returned.
type cellStart struct {
	at   time.Time
	fuzz bool
}

func newTracer() *tracer {
	return &tracer{
		reg:     metrics.NewRegistry(),
		running: map[uint64]cellStart{},
		exps:    map[string][]float64{},
	}
}

// start routes the program's counters into the tracer, attaches it to
// pool (which must not have run a cell yet) and starts the profile.
func (t *tracer) start(pool *runner.Pool) error {
	sim.SetGlobalMetrics(t.reg)
	explore.SetMetrics(t.reg)
	pool.SetMetrics(t.reg)
	pool.SetProgress(t)
	return pprof.StartCPUProfile(&t.profile)
}

// stop ends the profile and detaches the explorer counters; the
// caller re-installs the sim registry of its measured passes.
func (t *tracer) stop() {
	pprof.StopCPUProfile()
	explore.SetMetrics(nil)
}

// CellQueued implements runner.ProgressSink. Cells are submitted from
// one goroutine and workers take them from one FIFO channel, so the
// n-th cell started is the n-th queued.
func (t *tracer) CellQueued() {
	now := time.Now()
	t.mu.Lock()
	t.queued = append(t.queued, now)
	t.mu.Unlock()
}

// CellStarted implements runner.ProgressSink.
func (t *tracer) CellStarted() {
	now := time.Now()
	id := goid()
	t.mu.Lock()
	if len(t.queued) > 0 {
		t.queueWait = append(t.queueWait, now.Sub(t.queued[0]).Seconds())
		t.queued = t.queued[1:]
	}
	t.running[id] = cellStart{now, t.inFuzz}
	t.mu.Unlock()
}

// CellDone implements runner.ProgressSink; it runs on the worker that
// ran the cell, which is how it finds the cell's start.
func (t *tracer) CellDone() {
	now := time.Now()
	id := goid()
	t.mu.Lock()
	if s, ok := t.running[id]; ok {
		d := now.Sub(s.at).Seconds()
		t.service = append(t.service, d)
		if s.fuzz {
			t.cases = append(t.cases, d)
		}
		delete(t.running, id)
	}
	t.mu.Unlock()
}

// CellCached implements runner.ProgressSink.
func (t *tracer) CellCached() {}

func (t *tracer) expDone(name string, sec float64, cells int) {
	t.mu.Lock()
	t.exps[name] = append(t.exps[name], sec)
	t.expCells += cells
	t.mu.Unlock()
}

// fuzzing marks the cells submitted from now on as fuzz cases, or,
// with on false, as not.
func (t *tracer) fuzzing(on bool) {
	t.mu.Lock()
	t.inFuzz = on
	t.mu.Unlock()
}

func (t *tracer) genDone(sec float64) {
	t.mu.Lock()
	t.gens = append(t.gens, sec)
	t.mu.Unlock()
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[len("goroutine "):n])
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// tracedCache is the cell cache as a traced pass sees it: every Get
// and Put counted and timed on the way through.
type tracedCache struct {
	c *cellcache.Cache
	t *tracer
}

func (t *tracer) wrapCache(c *cellcache.Cache) runner.CellCache { return tracedCache{c, t} }

func (w tracedCache) Get(scope string, idx int) ([]byte, bool) {
	start := time.Now()
	data, ok := w.c.Get(scope, idx)
	w.t.getNs.Add(int64(time.Since(start)))
	w.t.getCalls.Add(1)
	if ok {
		w.t.hits.Add(1)
	}
	return data, ok
}

func (w tracedCache) Put(scope string, idx int, data []byte) {
	start := time.Now()
	w.c.Put(scope, idx, data)
	w.t.putNs.Add(int64(time.Since(start)))
	w.t.putCalls.Add(1)
	w.t.putBytes.Add(uint64(len(data)))
}

// Counts forwards the cache's hit/miss totals, which RunInstrumented
// reads to attribute cache behavior to each experiment.
func (w tracedCache) Counts() (hits, misses uint64) { return w.c.Counts() }
