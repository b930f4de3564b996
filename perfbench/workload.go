package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/list"
	"repro/smr"
)

// workers is the closed-loop client count: each worker goroutine issues its
// next operation only after the previous one returned.
const workers = 2

// capacity is the domains' initial session capacity, as bench.RunCell sizes
// it: the workers plus room for the prefill session and a stalled reader.
const capacity = workers + 2

// workload is one input set the benchmark runs. Keys are drawn uniformly
// from [0, size) by the paper's §4 procedure: a lookup calls Contains, an
// update calls Remove and, when it succeeds, re-Inserts the same key.
type workload struct {
	name      string
	structure string // "list" (Harris-Michael list) or "hashmap" (Michael's hash map)
	size      uint64 // keys, all present after prefill
	buckets   int    // hashmap only
	updatePct int    // share of operations that are updates
	valueSize int    // fixed []byte payload per node; 0 keeps values inline
	stalled   bool   // park one extra session mid-read for the whole run
	warmup    int    // operations per worker during set-up
}

var workloads = []workload{
	{name: "list-read", structure: "list", size: 1000, warmup: 3000},
	{name: "map-churn", structure: "hashmap", size: 4096, buckets: 1024, updatePct: 100, valueSize: 64, warmup: 30000},
	{name: "list-stall", structure: "list", size: 1000, updatePct: 10, stalled: true, warmup: 3000},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the knobs outside the configuration under test. The benchmark
// proper runs with the zero value; the traced run sets instrument, and the
// kill-check sets checked, mutation and oversubscribe.
type options struct {
	checked    bool
	mutation   core.TestingMutation
	instrument bool
	// oversubscribe runs this many workers instead of the closed loop's
	// two. With more workers than procs the scheduler preempts them at
	// arbitrary points, which opens the reader-side windows a protection
	// defect needs to surface; a measurement never sets it.
	oversubscribe int
}

// set is the structure surface the benchmark drives; list.List and
// hashmap.Map both provide it.
type set interface {
	Insert(g *smr.Guard, key, val uint64) bool
	Remove(g *smr.Guard, key uint64) bool
	Contains(g *smr.Guard, key uint64) bool
	Len() int
	Register() *smr.Guard
	SMR() *smr.Domain[list.Node]
	Drain()
}

// Operation kinds, used to index per-kind latency histograms.
const (
	kindRead = iota
	kindUpdate
	numKinds
)

var kindNames = [numKinds]string{"read", "update"}

// base is the run's monotonic time origin; every timestamp is time.Since(base).
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// instance is one built structure with its sessions: the system under test
// in the default configuration (HE through the public smr API, unchecked
// arena, scan on every retire, no offload, observability or control).
type instance struct {
	w    *workload
	seed uint64
	s    set
	ins  *smr.Instrument

	release     chan struct{}   // closes to wake the stalled reader
	stalledDone <-chan struct{} // closes once the stalled reader unregistered

	workers []*worker
	spacers [][]any // see sessionSpacer
}

// sessionSpacer runs right after a worker's session registration and
// allocates two cache lines' worth of blocks the size of each small,
// per-session object Register makes: the Guard (pointer-holding; its
// lifecycle word is written on every BeginOp and EndOp) and the Handle's
// held-era array (pointer-free; written on every era publication). The Go
// allocator hands out same-sized objects of one kind in address order, so
// without the spacer two workers' copies sit side by side and share a cache
// line in about half of all runs, which moves map-churn throughput by a
// quarter from run to run. With it every run measures the separated layout.
func sessionSpacer() (keep []any) {
	guard := int(unsafe.Sizeof(smr.Guard{}) / unsafe.Sizeof(unsafe.Pointer(nil)))
	for n := 0; n < 2*cacheLine; n += guard * 8 {
		keep = append(keep, make([]unsafe.Pointer, guard))
	}
	for n := 0; n < 2*cacheLine; n += list.Slots * 8 {
		keep = append(keep, make([]uint64, list.Slots))
	}
	return keep
}

// worker is one closed-loop client: its session, its key stream and what it
// measured. Only its own goroutine touches it while a phase runs. The key
// stream and the counters are written on every operation, so the struct is
// padded on both sides: two workers' state never shares a cache line,
// whatever addresses the allocator picks.
type worker struct {
	_ [cacheLine]byte

	id  int
	g   *smr.Guard
	rng bench.SplitMix64

	key       uint64 // key of the latest operation
	ops       int64  // operations attempted, warm-up included
	failed    int64
	removes   int64 // Remove calls
	hits      int64 // Remove calls that removed
	firstFail string

	// Per sub-window measurements of the current window.
	subOps [subWindows]int64
	lat    [subWindows][numKinds]*hist

	spans *spanRing // nil unless the window is traced

	// The reference kernel (refspeed.go) and, per sub-window, what its
	// samples took: timed ns, hops, and the wall time the worker spent
	// away from the workload for them.
	ref                     *refList
	nextRef                 int64
	refNs, refHops, refAway [subWindows]int64

	_ [cacheLine]byte
}

// cacheLine covers the adjacent-line prefetcher's pair of 64-byte lines.
const cacheLine = 128

func build(w *workload, o options) (set, *smr.Instrument) {
	var ins *smr.Instrument
	if o.instrument {
		ins = smr.NewInstrument(capacity)
	}
	var sizer func(uint64) int
	if w.valueSize > 0 {
		size := w.valueSize
		sizer = func(uint64) int { return size }
	}
	var s set
	switch w.structure {
	case "list":
		opts := []list.Option{list.WithMaxThreads(capacity), list.WithChecked(o.checked)}
		if ins != nil {
			opts = append(opts, list.WithInstrument(ins))
		}
		if sizer != nil {
			opts = append(opts, list.WithByteValues(sizer))
		}
		s = list.New(smr.HE.Factory(), opts...)
	case "hashmap":
		opts := []hashmap.Option{hashmap.WithMaxThreads(capacity), hashmap.WithChecked(o.checked), hashmap.WithBuckets(w.buckets)}
		if ins != nil {
			opts = append(opts, hashmap.WithInstrument(ins))
		}
		if sizer != nil {
			opts = append(opts, hashmap.WithByteValues(sizer))
		}
		s = hashmap.New(smr.HE.Factory(), opts...)
	default:
		panic("perfbench: unknown structure " + w.structure)
	}
	if o.mutation != core.MutNone {
		s.SMR().Backend().(*core.Eras).EnableMutation(o.mutation)
	}
	return s, ins
}

// setup builds an instance and brings it to the measured state: domain
// construction, prefill, the stalled reader (list-stall), worker session
// registration and a fixed count of warm-up operations per worker. Its
// duration is what setup_s reports. stream separates the key streams of
// repeated set-ups within one run.
func setup(w *workload, o options, seed uint64, stream int) (*instance, time.Duration, error) {
	// Collect the previous instance's garbage first, so a collection it
	// owes does not land inside this set-up's time.
	runtime.GC()
	t0 := time.Now()
	s, ins := build(w, o)
	in := &instance{w: w, seed: seed, s: s, ins: ins}

	g := s.Register()
	for k := w.size; k > 0; k-- {
		// Descending keys land at the list head: O(size) prefill.
		if !s.Insert(g, k-1, k-1) {
			g.Unregister()
			return nil, 0, fmt.Errorf("prefill: Insert(%d) reported a duplicate", k-1)
		}
	}
	g.Unregister()

	if w.stalled {
		l, ok := s.(*list.List)
		if !ok {
			return nil, 0, fmt.Errorf("stalled reader needs a list, have %s", w.structure)
		}
		in.release = make(chan struct{})
		in.stalledDone = bench.StalledReader(l, in.release)
	}

	n := workers
	if o.oversubscribe > 0 {
		n = o.oversubscribe
	}
	for i := 0; i < n; i++ {
		in.workers = append(in.workers, &worker{
			id:  i,
			g:   s.Register(),
			rng: *bench.NewSplitMix64(seed + uint64(stream)*0x9E3779B97F4A7C15 + uint64(i)*0x9E37),
			ref: refKernel(i),
		})
		in.spacers = append(in.spacers, sessionSpacer())
	}
	in.each(func(wk *worker) {
		for i := 0; i < w.warmup && wk.firstFail == ""; i++ {
			in.op(wk)
		}
	})
	return in, time.Since(t0), nil
}

// each runs fn on every worker in its own goroutine and waits for all of
// them. A panic inside fn counts as one failed operation of that worker and
// ends its part of the phase.
func (in *instance) each(fn func(wk *worker)) {
	var wg sync.WaitGroup
	for _, wk := range in.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					wk.failed++
					if wk.firstFail == "" {
						wk.firstFail = fmt.Sprintf("worker %d panicked: %v", wk.id, r)
					}
				}
			}()
			fn(wk)
		}(wk)
	}
	wg.Wait()
}

// op runs one operation of the workload mix. It reports the kind and
// whether the outcome is consistent with a correct structure: a lookup on a
// workload without updates must find its key, and a re-Insert must succeed
// after the same worker's successful Remove.
func (in *instance) op(wk *worker) (kind int, ok bool) {
	w := in.w
	key := wk.rng.Intn(w.size)
	wk.key = key
	wk.ops++
	if w.updatePct > 0 && wk.rng.Intn(100) < uint64(w.updatePct) {
		kind, ok = kindUpdate, true
		wk.removes++
		if in.s.Remove(wk.g, key) {
			wk.hits++
			ok = in.s.Insert(wk.g, key, key)
		}
	} else {
		kind = kindRead
		ok = in.s.Contains(wk.g, key) || w.updatePct > 0
	}
	if !ok {
		wk.failed++
		if wk.firstFail == "" {
			wk.firstFail = fmt.Sprintf("worker %d: %s of key %d failed", wk.id, kindNames[kind], key)
		}
	}
	return kind, ok
}

// A measured window is cut into equal slices, subWindows of them when the
// window is long enough for each to last minSubWindow; the end-to-end
// figures are taken over the slices (see endToEnd), so a disturbance that
// lands in one slice moves one sample, not the result. The floor keeps a
// slice well above the delay with which the timing goroutine gets a proc
// back from the two busy workers (one scheduler preemption, ~10 ms).
const (
	subWindows   = 20
	minSubWindow = 100 * time.Millisecond
)

// sampleEvery is the memory sampler's period.
const sampleEvery = 5 * time.Millisecond

// windowResult is what one measured window produced.
type windowResult struct {
	start, end  int64   // ns since base
	n           int     // sub-windows used
	subOps      []int64 // operations completed per sub-window, all workers
	subSecs     []float64
	lat         [subWindows][numKinds]*hist // merged over workers
	liveBytes   []float64                   // sampled Σ class Live × Footprint
	pendBytes   []float64                   // sampled Stats().PendingBytes
	refNsPerHop []float64                   // reference kernel's ns per hop per sub-window
	refAwaySecs []float64                   // worker time spent on it per sub-window, all workers
	ops         int64
	failed      int64
	removes     int64
	hits        int64
}

// window runs the closed loop for dur and returns its measurements. With
// rings non-nil (one per worker), every operation is also recorded as a
// root span.
func (in *instance) window(dur time.Duration, rings []*spanRing) *windowResult {
	res := &windowResult{n: max(1, min(subWindows, int(dur/minSubWindow)))}
	var stop atomic.Bool
	var sub atomic.Int32
	opsBefore, failedBefore, removesBefore, hitsBefore := in.totals()
	for i, wk := range in.workers {
		wk.subOps = [subWindows]int64{}
		wk.refNs, wk.refHops, wk.refAway = [subWindows]int64{}, [subWindows]int64{}, [subWindows]int64{}
		wk.nextRef = 0 // sample the host's speed first thing
		for j := 0; j < res.n; j++ {
			for k := range wk.lat[j] {
				wk.lat[j][k] = newHist()
			}
		}
		wk.spans = nil
		if rings != nil {
			wk.spans = rings[i]
		}
	}

	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		arena := in.s.SMR().Arena()
		dom := in.s.SMR()
		for !stop.Load() {
			var live int64
			for _, c := range arena.ClassStats() {
				live += c.Live * c.Footprint
			}
			res.liveBytes = append(res.liveBytes, float64(live))
			res.pendBytes = append(res.pendBytes, float64(dom.Stats().PendingBytes))
			time.Sleep(sampleEvery)
		}
	}()

	runtime.GC()
	var workersDone sync.WaitGroup
	workersDone.Add(1)
	go func() {
		defer workersDone.Done()
		in.each(func(wk *worker) {
			var seq uint64
			for !stop.Load() {
				i := sub.Load()
				t0 := now()
				if t0 >= wk.nextRef {
					ns, hops := wk.ref.sample()
					end := now()
					wk.refNs[i] += ns
					wk.refHops[i] += hops
					wk.refAway[i] += end - t0
					wk.nextRef = end + int64(refEvery)
					continue
				}
				kind, _ := in.op(wk)
				t1 := now()
				wk.lat[i][kind].record(t1 - t0)
				wk.subOps[i]++
				if wk.spans != nil {
					seq++
					wk.spans.add(opSpan{start: t0, end: t1, op: uint64(wk.id)<<48 | seq, key: wk.key, kind: uint8(kind)})
				}
			}
		})
	}()

	res.start = now()
	bounds := []int64{res.start}
	for i := 1; i <= res.n; i++ {
		due := res.start + int64(dur)*int64(i)/int64(res.n)
		time.Sleep(time.Duration(due - now()))
		bounds = append(bounds, now())
		if i < res.n {
			sub.Store(int32(i))
		}
	}
	stop.Store(true)
	workersDone.Wait()
	samplerDone.Wait()
	res.end = now()
	// The last slice also holds the operations that were in flight at stop.
	bounds[res.n] = res.end

	res.subOps = make([]int64, res.n)
	var allNs, allHops int64
	for _, wk := range in.workers {
		for i := 0; i < res.n; i++ {
			allNs, allHops = allNs+wk.refNs[i], allHops+wk.refHops[i]
		}
	}
	for i := 0; i < res.n; i++ {
		res.subSecs = append(res.subSecs, float64(bounds[i+1]-bounds[i])/1e9)
		var ns, hops, away int64
		for _, wk := range in.workers {
			ns, hops, away = ns+wk.refNs[i], hops+wk.refHops[i], away+wk.refAway[i]
		}
		nsPerHop := refNominalNs
		switch {
		case hops > 0:
			nsPerHop = float64(ns) / float64(hops)
		case allHops > 0:
			// No worker sampled the kernel in this sub-window: take
			// the window's figure.
			nsPerHop = float64(allNs) / float64(allHops)
		}
		res.refNsPerHop = append(res.refNsPerHop, nsPerHop)
		res.refAwaySecs = append(res.refAwaySecs, float64(away)/1e9)
		for k := 0; k < numKinds; k++ {
			res.lat[i][k] = newHist()
		}
		for _, wk := range in.workers {
			res.subOps[i] += wk.subOps[i]
			for k := 0; k < numKinds; k++ {
				res.lat[i][k].merge(wk.lat[i][k])
			}
		}
	}
	ops, failed, removes, hits := in.totals()
	res.ops, res.failed = ops-opsBefore, failed-failedBefore
	res.removes, res.hits = removes-removesBefore, hits-hitsBefore
	for _, wk := range in.workers {
		wk.lat, wk.spans = [subWindows][numKinds]*hist{}, nil
	}
	return res
}

func (in *instance) totals() (ops, failed, removes, hits int64) {
	for _, wk := range in.workers {
		ops += wk.ops
		failed += wk.failed
		removes += wk.removes
		hits += wk.hits
	}
	return
}

// firstFailure returns the first failed operation any worker recorded.
func (in *instance) firstFailure() string {
	for _, wk := range in.workers {
		if wk.firstFail != "" {
			return wk.firstFail
		}
	}
	return ""
}
