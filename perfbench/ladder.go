package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/leak"
	"repro/internal/list"
	"repro/internal/reclaim"
	"repro/smr"
)

// The call ladder times batches of calls into each layer's public function
// on the warm domain and structure, one goroutine, workers stopped. Every
// rung runs in every round, so a slow spell of the host lands on all rungs
// alike, and a rung's per-call figure is the median over its batches. A
// layer's self cost is its per-call time minus that of the layer it calls:
//
//	read hop:  struct.hop > smr.load + mem.get;  smr.load > reclaim.protect
//	           > core.protect > leak.protect (plain load: the floor)
//	retire:    smr.retire > reclaim.retire > core.retire > mem.alloc_free
//
// The hp, ebr and leak rows are Table 1's reference rows: the same batch
// method on a fresh domain of that scheme with the same configuration.

const (
	batchTarget  = time.Millisecond // calibrated duration of one batch
	ladderRounds = 21
	payloadSize  = 64 // bytes per mem.bytes_alloc_free block (map-churn's value size)
	protectRun   = 128
)

// rung is one row of the ladder. calls makes n calls and returns the units
// performed: n for plain rungs, protected hops for the structure rung.
type rung struct {
	name  string
	calls func(n int) int64
	n     int
	per   []float64 // ns per unit, one entry per batch
}

var ladderSink uint64

// The timed loops are noinline so each batch runs the same machine code
// whatever surrounds the call, and the results feed ladderSink so the
// protected loads cannot be removed.

//go:noinline
func loopGet(a *smr.Arena[list.Node], ref smr.Ref, n int) (acc uint64) {
	for i := 0; i < n; i++ {
		acc += a.Get(ref).Key
	}
	return acc
}

//go:noinline
func loopBackendProtect(be smr.Backend, h *reclaim.Handle, src *atomic.Uint64, n int) (acc uint64) {
	be.BeginOp(h)
	for i := 0; i < n; i++ {
		if i%protectRun == protectRun-1 {
			be.EndOp(h)
			be.BeginOp(h)
		}
		acc += uint64(be.Protect(h, 0, src))
	}
	be.EndOp(h)
	return acc
}

//go:noinline
func loopHandleProtect(h *reclaim.Handle, src *atomic.Uint64, n int) (acc uint64) {
	h.BeginOp()
	for i := 0; i < n; i++ {
		if i%protectRun == protectRun-1 {
			h.EndOp()
			h.BeginOp()
		}
		acc += uint64(h.Protect(0, src))
	}
	h.EndOp()
	return acc
}

//go:noinline
func loopGuardLoad(g *smr.Guard, cell *smr.Atomic[list.Node], n int) (acc uint64) {
	g.BeginOp()
	for i := 0; i < n; i++ {
		if i%protectRun == protectRun-1 {
			g.EndOp()
			g.BeginOp()
		}
		acc += uint64(cell.Load(g, 0).Ref())
	}
	g.EndOp()
	return acc
}

// loopBackendPublish opens a window per call, so every Protect finds its
// index cleared and takes the publish path (era store).
//
//go:noinline
func loopBackendPublish(be smr.Backend, h *reclaim.Handle, src *atomic.Uint64, n int) (acc uint64) {
	for i := 0; i < n; i++ {
		be.BeginOp(h)
		acc += uint64(be.Protect(h, 0, src))
		be.EndOp(h)
	}
	return acc
}

//go:noinline
func loopBackendWindow(be smr.Backend, h *reclaim.Handle, n int) {
	for i := 0; i < n; i++ {
		be.BeginOp(h)
		be.EndOp(h)
	}
}

//go:noinline
func loopGuardWindow(g *smr.Guard, n int) {
	for i := 0; i < n; i++ {
		g.BeginOp()
		g.EndOp()
	}
}

//go:noinline
func loopAllocFree(a *smr.Arena[list.Node], shard, n int) {
	for i := 0; i < n; i++ {
		ref, _ := a.AllocAt(shard)
		a.FreeAt(shard, ref)
	}
}

//go:noinline
func loopBytesAllocFree(a *smr.Arena[list.Node], shard, n int) {
	for i := 0; i < n; i++ {
		ref, _ := a.AllocBytesAt(shard, payloadSize)
		a.FreeAt(shard, ref)
	}
}

//go:noinline
func loopBackendRetire(a *smr.Arena[list.Node], be smr.Backend, h *reclaim.Handle, n int) {
	for i := 0; i < n; i++ {
		ref, _ := a.AllocAt(h.ID())
		be.OnAlloc(ref)
		be.Retire(h, ref)
	}
}

//go:noinline
func loopHandleRetire(a *smr.Arena[list.Node], be smr.Backend, h *reclaim.Handle, n int) {
	for i := 0; i < n; i++ {
		ref, _ := a.AllocAt(h.ID())
		be.OnAlloc(ref)
		h.Retire(ref)
	}
}

//go:noinline
func loopGuardRetire(d *smr.Domain[list.Node], g *smr.Guard, n int) {
	for i := 0; i < n; i++ {
		p, _ := d.Alloc(g)
		d.Publish(p.Ref())
		g.Retire(p.Ref())
	}
}

// session is one registered ladder session with a published node of its
// own, reachable through both a typed cell and a raw word.
type session struct {
	d    *smr.Domain[list.Node]
	g    *smr.Guard
	h    *reclaim.Handle
	be   smr.Backend
	node smr.Ptr[list.Node]
	cell smr.Atomic[list.Node]
	raw  atomic.Uint64
}

func openSession(d *smr.Domain[list.Node]) (*session, error) {
	s := &session{d: d, g: d.Register(), be: d.Backend()}
	s.h = s.g.Handle()
	if s.g.ID() >= capacity {
		// The arena has capacity shards; a higher id would measure the
		// shared slow path instead of the session's magazine.
		s.g.Unregister()
		return nil, fmt.Errorf("ladder session id %d outside the %d arena shards", s.g.ID(), capacity)
	}
	s.node, _ = d.Alloc(s.g)
	d.Publish(s.node.Ref())
	s.cell.Store(s.node)
	s.raw.Store(uint64(s.node.Ref()))
	return s, nil
}

func (s *session) close() {
	s.g.Retire(s.node.Ref())
	s.g.Unregister()
}

func protectRung(name string, s *session) *rung {
	return &rung{name: name, calls: func(n int) int64 {
		ladderSink += loopBackendProtect(s.be, s.h, &s.raw, n)
		return int64(n)
	}}
}

func retireRung(name string, s *session) *rung {
	return &rung{name: name, calls: func(n int) int64 {
		loopBackendRetire(s.d.Arena(), s.be, s.h, n)
		return int64(n)
	}}
}

// ladder runs the call ladder for in (workers stopped) and returns the
// per-call medians in ns by rung name. containsHops[k] is the number of
// protected hops of Contains(k), measured on the instrumented twin.
func ladder(in *instance, containsHops []int64, tr *tracer) (map[string]float64, error) {
	he, err := openSession(in.s.SMR())
	if err != nil {
		return nil, err
	}
	defer he.close()

	// Byte payloads: the structure's own size classes when it stores
	// []byte values, else an arena of the same configuration with them.
	barena := in.s.SMR().Arena()
	bshard := he.g.ID()
	if in.w.valueSize == 0 {
		side := smr.New[list.Node](smr.HE, smr.Config{MaxThreads: capacity, Slots: list.Slots}, smr.WithByteValues[list.Node]())
		barena, bshard = side.Arena(), 0
	}

	cfg := smr.Config{MaxThreads: capacity, Slots: list.Slots}
	var refs []*session
	for _, mk := range []smr.Factory{
		func(a smr.Allocator, c smr.Config) smr.Backend { return leak.New(a, c) },
		smr.HP.Factory(),
		smr.EBR.Factory(),
	} {
		s, err := openSession(smr.NewWith[list.Node](mk, cfg))
		if err != nil {
			return nil, err
		}
		refs = append(refs, s)
	}
	leakS, hpS, ebrS := refs[0], refs[1], refs[2]
	defer func() {
		for _, s := range refs {
			s.close()
			s.d.Drain()
		}
	}()

	// The structure rung looks up keys from the run's seed; its unit is a
	// protected hop, so the figure is comparable across structures.
	keys := make([]uint64, 4096)
	rng := bench.NewSplitMix64(in.seed ^ 0x1add3)
	for i := range keys {
		keys[i] = rng.Intn(in.w.size)
	}
	next := 0

	rungs := []*rung{
		{name: "mem.get", calls: func(n int) int64 {
			ladderSink += loopGet(he.d.Arena(), he.node.Ref(), n)
			return int64(n)
		}},
		protectRung("leak.protect", leakS),
		protectRung("core.protect", he),
		{name: "reclaim.protect", calls: func(n int) int64 {
			ladderSink += loopHandleProtect(he.h, &he.raw, n)
			return int64(n)
		}},
		{name: "smr.load", calls: func(n int) int64 {
			ladderSink += loopGuardLoad(he.g, &he.cell, n)
			return int64(n)
		}},
		protectRung("hp.protect", hpS),
		protectRung("ebr.protect", ebrS),
		{name: "core.publish_window", calls: func(n int) int64 {
			ladderSink += loopBackendPublish(he.be, he.h, &he.raw, n)
			return int64(n)
		}},
		{name: "core.op_window", calls: func(n int) int64 {
			loopBackendWindow(he.be, he.h, n)
			return int64(n)
		}},
		{name: "smr.op_window", calls: func(n int) int64 {
			loopGuardWindow(he.g, n)
			return int64(n)
		}},
		{name: "struct.hop", calls: func(n int) int64 {
			var hops int64
			for i := 0; i < n; i++ {
				k := keys[next]
				next = (next + 1) % len(keys)
				if in.s.Contains(he.g, k) {
					ladderSink++
				}
				hops += containsHops[k]
			}
			return hops
		}},
		{name: "mem.alloc_free", calls: func(n int) int64 {
			loopAllocFree(he.d.Arena(), he.g.ID(), n)
			return int64(n)
		}},
		{name: "mem.bytes_alloc_free", calls: func(n int) int64 {
			loopBytesAllocFree(barena, bshard, n)
			return int64(n)
		}},
		retireRung("core.retire", he),
		{name: "reclaim.retire", calls: func(n int) int64 {
			loopHandleRetire(he.d.Arena(), he.be, he.h, n)
			return int64(n)
		}},
		{name: "smr.retire", calls: func(n int) int64 {
			loopGuardRetire(he.d, he.g, n)
			return int64(n)
		}},
		retireRung("hp.retire", hpS),
		retireRung("ebr.retire", ebrS),
	}

	root := now()
	for _, r := range rungs {
		for r.n = 16; ; r.n *= 2 {
			t0 := now()
			r.calls(r.n)
			if time.Duration(now()-t0) >= batchTarget || r.n >= 1<<26 {
				break
			}
		}
	}
	type batch struct {
		name       string
		start, end int64
		calls      int64
	}
	var batches []batch
	for round := 0; round < ladderRounds; round++ {
		for _, r := range rungs {
			t0 := now()
			units := r.calls(r.n)
			t1 := now()
			r.per = append(r.per, float64(t1-t0)/float64(units))
			batches = append(batches, batch{r.name, t0, t1, int64(r.n)})
		}
	}
	if tr != nil {
		id := tr.span("ladder", 0, root, now(), 0)
		for _, b := range batches {
			tr.span("ladder."+b.name, id, b.start, b.end, b.calls)
		}
	}
	out := make(map[string]float64, len(rungs))
	for _, r := range rungs {
		out[r.name] = median(r.per)
	}
	return out, nil
}
