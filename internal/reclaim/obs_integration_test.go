package reclaim_test

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/reclaim"
)

// TestStatsPoolCounters checks that Stats distinguishes pooled re-acquires
// from fresh registrations.
func TestStatsPoolCounters(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})

	h := d.Acquire() // empty pool: falls through to Register
	st := d.Stats()
	if st.PoolHits != 0 || st.PoolMisses != 1 {
		t.Fatalf("after first acquire: hits/misses = %d/%d, want 0/1", st.PoolHits, st.PoolMisses)
	}
	d.Release(h)
	h = d.Acquire() // served from the pool
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 1 {
		t.Fatalf("after re-acquire: hits/misses = %d/%d, want 1/1", st.PoolHits, st.PoolMisses)
	}
	h2 := d.Acquire() // pool empty again (h holds the only pooled slot)
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 2 {
		t.Fatalf("after second miss: hits/misses = %d/%d, want 1/2", st.PoolHits, st.PoolMisses)
	}
	d.Release(h)
	d.Release(h2)

	// Register/Unregister never touch the pool counters.
	hr := d.Register()
	d.Unregister(hr)
	st = d.Stats()
	if st.PoolHits != 1 || st.PoolMisses != 2 {
		t.Fatalf("register moved pool counters: hits/misses = %d/%d", st.PoolHits, st.PoolMisses)
	}
}

// TestStatsPendingNeverNegative is the regression test for the transient
// negative Pending readings: the retired/freed stripe folds are not atomic
// with respect to each other, so a fold racing a retire+free pair could
// observe more frees than retires. Stats must clamp — concurrent pollers
// must never see Pending < 0. Run under -race in CI.
func TestStatsPendingNeverNegative(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 8, Slots: 2})

	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			defer d.Unregister(h)
			for !stop.Load() {
				ref, _ := arena.AllocAt(h.ID())
				d.OnAlloc(ref)
				d.Retire(h, ref) // unprotected: freed by the scan each retire triggers
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if p := d.Stats().Pending; p < 0 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("observed negative pending: %d", p)
		}
	}
	stop.Store(true)
	wg.Wait()
	d.Drain()
	if p := d.Stats().Pending; p != 0 {
		t.Fatalf("pending after drain = %d, want 0", p)
	}
}

// TestObsSchemeIntegration wires a real HE domain to an obs domain and
// checks the full telemetry surface end to end: stats mirror, era lag,
// flight-recorder events from retire/scan/handle paths, pending bytes via
// the arena slot size, and latency histogram counts.
func TestObsSchemeIntegration(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 4, Slots: 2})
	// Ring sized to hold the whole run (~500 events) so the early
	// register/acquire records survive for the kind assertions below.
	od := obs.NewDomain("HE", obs.Config{Sessions: 4, RingEvents: 1024, SampleAll: true})
	d.EnableObs(od)

	h := d.Acquire()
	for i := 0; i < 100; i++ {
		ref, _ := arena.AllocAt(h.ID())
		d.OnAlloc(ref)
		h.Retire(ref) // the timed handle path, as the structures use
	}
	d.Release(h)

	s := od.Snapshot()
	if s.Retired != 100 {
		t.Fatalf("obs retired = %d, want 100", s.Retired)
	}
	if s.Freed+s.Pending != 100 {
		t.Fatalf("freed+pending = %d+%d, want 100", s.Freed, s.Pending)
	}
	if want := s.Pending * int64(arena.SlotBytes()); s.PendingBytes != want {
		t.Fatalf("pending bytes = %d, want %d", s.PendingBytes, want)
	}
	if !s.HasEras {
		t.Fatal("HE must export era gauges")
	}
	if s.EraClock == 0 || s.Scans == 0 {
		t.Fatalf("era clock / scans = %d/%d, want nonzero", s.EraClock, s.Scans)
	}
	if s.Retire.Count == 0 || s.Scan.Count == 0 {
		t.Fatalf("latency counts retire/scan = %d/%d, want nonzero (SampleAll)", s.Retire.Count, s.Scan.Count)
	}

	kinds := map[obs.Kind]int{}
	for _, e := range od.Events(0) {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.EvRegister, obs.EvRelease, obs.EvRetire, obs.EvScanStart, obs.EvScanEnd, obs.EvFree, obs.EvEra} {
		if kinds[k] == 0 {
			t.Errorf("no %v event recorded; kinds=%v", k, kinds)
		}
	}
	d.Drain()
}

// TestScanEndCountsOwnFrees pins the scan_end value to the frees of the
// scanning session's own pass. Sessions past the MaxThreads hint share
// counter stripes, so a reading taken off the freed stripe would also count
// a neighbour's frees.
func TestScanEndCountsOwnFrees(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 1, Slots: 2})
	od := obs.NewDomain("HE", obs.Config{Sessions: 1, RingEvents: 64})
	d.EnableObs(od)
	h0 := d.Register()
	h1 := d.Register()
	ref, _ := arena.AllocAt(h1.ID())
	d.OnAlloc(ref)

	h0.NoteScan()
	h1.FreeRetired(ref)
	h0.NoteScanEnd()

	ends := 0
	for _, e := range od.Events(0) {
		if e.Kind == obs.EvScanEnd && e.Session == h0.ID() {
			ends++
			if e.Value != 0 {
				t.Errorf("session %d's scan_end reports %d freed; its pass freed nothing", h0.ID(), e.Value)
			}
		}
	}
	if ends != 1 {
		t.Fatalf("recorded %d scan_end events for session %d, want 1", ends, h0.ID())
	}
	h0.Unregister()
	h1.Unregister()
	d.Drain()
}

// TestObsChurnRace drives an instrumented HE domain from several goroutines
// while a sampler and an event reader run concurrently — the -race
// regression test for the recorder/histogram/snapshot paths embedded in the
// hot reclamation code (the sibling of the pure-obs churn test).
func TestObsChurnRace(t *testing.T) {
	arena := mem.NewArena[bnode]()
	d := core.New(arena, reclaim.Config{MaxThreads: 8, Slots: 2})
	od := obs.NewDomain("HE", obs.Config{Sessions: 8, RingEvents: 64, SampleShift: 2})
	d.EnableObs(od)

	smp := obs.StartSampler(io.Discard, time.Millisecond, func() []*obs.Domain { return []*obs.Domain{od} })
	defer smp.Stop()

	const workers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for { // at least one batch even if the poller finishes first
				h := d.Acquire()
				for i := 0; i < 64; i++ {
					ref, _ := arena.AllocAt(h.ID())
					d.OnAlloc(ref)
					h.Retire(ref)
				}
				d.Release(h)
				if stop.Load() {
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		od.Snapshot()
		od.Events(0)
		smp.Sample([]*obs.Domain{od})
	}
	stop.Store(true)
	wg.Wait()
	d.Drain()

	s := od.Snapshot()
	if s.Retired == 0 || s.Retired != s.Freed {
		t.Fatalf("after drain: retired=%d freed=%d", s.Retired, s.Freed)
	}
}
