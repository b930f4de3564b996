package reclaim

import (
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// Internal-package test: deterministic watermark saturation. A stub domain
// whose Scan blocks worker goroutines on a test-controlled gate pins refs
// in flight, so the second handoff attempt trips the watermark with no
// timing dependence, and the fallback counter plus the inline scan are
// asserted exactly.

type stubOffDomain struct {
	Base
	// gate blocks background-reclaimer scans until closed; the application
	// handle (inline fallback scans) bypasses it.
	gate      chan struct{}
	appHandle atomic.Pointer[Handle]
}

func newStubOffDomain(alloc Allocator, cfg Config) *stubOffDomain {
	d := &stubOffDomain{gate: make(chan struct{})}
	d.Base = NewBase(alloc, cfg, 1, 0)
	d.Base.Dom = d
	return d
}

func (d *stubOffDomain) Name() string        { return "stub" }
func (d *stubOffDomain) BeginOp(h *Handle)   {}
func (d *stubOffDomain) EndOp(h *Handle)     {}
func (d *stubOffDomain) OnAlloc(ref mem.Ref) {}
func (d *stubOffDomain) Protect(h *Handle, index int, src *atomic.Uint64) mem.Ref {
	return mem.Ref(src.Load())
}

func (d *stubOffDomain) Retire(h *Handle, ref mem.Ref) {
	h.PushRetired(ref)
	if h.ScanDue() && !h.TryOffload() {
		d.Scan(h)
	}
}

func (d *stubOffDomain) Scan(h *Handle) {
	if h != d.appHandle.Load() {
		<-d.gate
	}
	h.NoteScan()
	h.ReclaimUnprotected(func(mem.Ref) bool { return false })
}

func (d *stubOffDomain) Drain()       { d.DrainAll() }
func (d *stubOffDomain) Stats() Stats { return d.BaseStats() }

func TestOffloadWatermarkBackpressure(t *testing.T) {
	arena := mem.NewArena[uint64](mem.WithShards[uint64](4))
	d := newStubOffDomain(arena, Config{
		MaxThreads: 2,
		Slots:      1,
		// Scan threshold R × MaxThreads × Slots = 4.
		ScanR: 2,
		// 1-byte watermark: any in-flight batch saturates the pipeline.
		Offload: OffloadConfig{Workers: 1, WatermarkBytes: 1},
	})
	h := d.Register()
	d.appHandle.Store(h)

	retire := func(n int) {
		for i := 0; i < n; i++ {
			ref, _ := arena.AllocAt(h.ID())
			d.Retire(h, ref)
		}
	}

	// First batch: nothing queued yet, so the handoff is accepted; the
	// worker picks it up and blocks in Scan, pinning 4 refs in flight.
	retire(4)
	off := d.off
	if got := off.handoffs.Load(); got != 1 {
		t.Fatalf("handoffs = %d, want 1", got)
	}
	if got := off.fallbacks.Load(); got != 0 {
		t.Fatalf("fallbacks = %d, want 0 before saturation", got)
	}
	if got := off.queuedRefs.Load(); got != 4 {
		t.Fatalf("queuedRefs = %d, want 4 (worker gated)", got)
	}

	// Second batch: 4 refs × slotBytes exceeds the 1-byte watermark, so
	// TryOffload must refuse and the retiring session must scan inline.
	retire(4)
	if got := off.fallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1 at saturation", got)
	}
	if got := off.handoffs.Load(); got != 1 {
		t.Fatalf("handoffs = %d, want still 1", got)
	}
	if got := d.BaseStats().Freed; got != 4 {
		t.Fatalf("freed = %d, want 4 from the inline fallback scan", got)
	}

	// Release the worker and shut down: everything reclaims, the queue
	// gauge returns to zero, and the segments were recycled via the pool.
	close(d.gate)
	d.Drain()
	if s := d.BaseStats(); s.Pending != 0 || s.Freed != 8 {
		t.Fatalf("after drain: %+v", s)
	}
	if got := off.queuedRefs.Load(); got != 0 {
		t.Fatalf("queuedRefs after drain = %d, want 0", got)
	}
	off.segMu.Lock()
	pooled := len(off.segPool)
	off.segMu.Unlock()
	if pooled == 0 {
		t.Fatal("no segments recycled into the pool")
	}
}

// TestOffloadIgnoredWithoutScanner pins the no-op contract for schemes
// without an on-demand scan: TryOffload permanently falls back and no
// goroutines start.
func TestOffloadIgnoredWithoutScanner(t *testing.T) {
	arena := mem.NewArena[uint64]()
	// A bare Base whose Dom lacks Scan: use a stub with the method set
	// minus Scan via embedding trickery is overkill — instead check the
	// offloader directly through a domain value that is not a Scanner.
	d := &noScanDomain{}
	d.Base = NewBase(arena, Config{MaxThreads: 2, Slots: 1, Offload: OffloadConfig{Workers: 2}}, 0, 0)
	d.Base.Dom = d
	h := d.Register()
	if h.TryOffload() {
		t.Fatal("TryOffload succeeded on a domain without Scan")
	}
	if !d.off.stopped.Load() {
		t.Fatal("offloader not marked terminally stopped")
	}
	if h.Offloading() {
		t.Fatal("Offloading() true after terminal stop")
	}
}

type noScanDomain struct {
	Base
}

func (d *noScanDomain) Name() string        { return "noscan" }
func (d *noScanDomain) BeginOp(h *Handle)   {}
func (d *noScanDomain) EndOp(h *Handle)     {}
func (d *noScanDomain) OnAlloc(ref mem.Ref) {}
func (d *noScanDomain) Protect(h *Handle, index int, src *atomic.Uint64) mem.Ref {
	return mem.Ref(src.Load())
}
func (d *noScanDomain) Retire(h *Handle, ref mem.Ref) { h.PushRetired(ref) }
func (d *noScanDomain) Drain()                        { d.DrainAll() }
func (d *noScanDomain) Stats() Stats                  { return d.BaseStats() }
