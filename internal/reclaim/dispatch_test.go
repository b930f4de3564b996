package reclaim_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
	"repro/internal/schedtest"
)

// The session wrappers dispatch Protect and Retire to a target picked once
// per handle: the scheme itself, or the observing decorator when the
// domain has obs attached. These tests pin what that choice must preserve:
// observed sessions still feed the histograms and the lifecycle tracer,
// unobserved sessions reach the scheme directly, and the schedule gates
// inside the scheme fire the same either way.

// sharedNode allocates one published node and a link word pointing at it.
func sharedNode(arena *mem.Arena[bnode], d *core.Eras) (mem.Ref, *atomic.Uint64) {
	ref, _ := arena.Alloc()
	d.OnAlloc(ref)
	var src atomic.Uint64
	src.Store(uint64(ref))
	return ref, &src
}

func protectN(h *reclaim.Handle, src *atomic.Uint64, n int) {
	h.BeginOp()
	for i := 0; i < n; i++ {
		h.Protect(0, src)
	}
	h.EndOp()
}

func TestObservedHandleRecordsProtectAndRetire(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 2, Slots: 2})
	// One bracket in four is timed; every protect of a traced ref, timed or
	// not, lands on its span.
	od := obs.NewDomain("HE", obs.Config{Sessions: 2, SampleShift: 2,
		Trace: obs.TraceConfig{Enabled: true, SampleAll: true}})
	d.EnableObs(od)
	ref, src := sharedNode(arena, d)

	h := d.Register()
	const n = 12
	protectN(h, src, n)

	s := od.Snapshot()
	if s.Protect.Count != n/4 {
		t.Errorf("protect histogram holds %d samples after %d protects, want %d", s.Protect.Count, n, n/4)
	}
	protects := 0
	for _, sp := range od.Tracer().LiveSpans() {
		if sp.Ref != uint64(ref) {
			continue
		}
		for _, ev := range sp.Events {
			if ev.Kind == obs.EvProtect && ev.Session == h.ID() {
				protects++
			}
		}
	}
	if protects != n {
		t.Errorf("lifecycle span of the protected ref holds %d protect events, want %d", protects, n)
	}

	for i := 0; i < 4; i++ {
		r, _ := sharedNode(arena, d)
		h.Retire(r)
	}
	if got := od.Snapshot().Retire.Count; got != 1 {
		t.Errorf("retire histogram holds %d samples after four retires, want 1", got)
	}
	h.Retire(ref)
	h.Unregister()
	d.Drain()
}

// TestUnobservedHandleSkipsObs registers a session before obs is attached
// (handles keep the dispatch target they were made with), so the domain's
// obs state exists but the session must leave it untouched.
func TestUnobservedHandleSkipsObs(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 2, Slots: 2})
	ref, src := sharedNode(arena, d)

	h := d.Register()
	od := obs.NewDomain("HE", obs.Config{Sessions: 2, SampleAll: true,
		Trace: obs.TraceConfig{Enabled: true, SampleAll: true}})
	d.EnableObs(od)

	protectN(h, src, 10)
	h.Retire(ref)
	s := od.Snapshot()
	if s.Protect.Count != 0 || s.Retire.Count != 0 {
		t.Errorf("unobserved session recorded %d protect and %d retire samples, want none",
			s.Protect.Count, s.Retire.Count)
	}
	for _, sp := range od.Tracer().LiveSpans() {
		for _, ev := range sp.Events {
			if ev.Session == h.ID() {
				t.Errorf("unobserved session landed a %s event on span %#x", ev.Kind, sp.Ref)
			}
		}
	}
	h.Unregister()
	d.Drain()
}

// TestProtectGateFiresPerAttempt counts schedule gates under a controller:
// Hazard Eras' Protect passes PointProtect once per read attempt, so a
// Protect that finds the era unchanged passes it once and one that must
// publish a moved era passes it twice — with and without the observing
// decorator in front of the scheme.
func TestProtectGateFiresPerAttempt(t *testing.T) {
	for _, observed := range []bool{false, true} {
		arena := mem.NewArena[bnode]()
		d := core.New(arena, reclaim.Config{MaxThreads: 2, Slots: 2})
		if observed {
			d.EnableObs(obs.NewDomain("HE", obs.Config{Sessions: 2}))
		}
		_, src := sharedNode(arena, d)
		h := d.Register()

		const n = 40
		moves := 0
		var gates uint64
		err := schedtest.Run(schedtest.Config{Seed: 1}, func() {
			h.BeginOp()
			for i := 0; i < n; i++ {
				if i%4 == 0 {
					d.SetEraClock(d.Era() + 1)
					moves++
				}
				h.Protect(0, src)
			}
			h.EndOp()
			gates = schedtest.Active().Steps()
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(n + moves); gates != want {
			t.Errorf("observed=%v: %d protects (%d after an era move) passed %d gates, want %d",
				observed, n, moves, gates, want)
		}
		h.Unregister()
		d.Drain()
	}
}
