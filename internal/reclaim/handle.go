package reclaim

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/schedtest"
)

// This file implements the session layer: the dynamically growing slot
// registry (chained, atomically published SlotBlocks) and the Handle that
// caches every per-session pointer the hot paths need.
//
// # Growth protocol and why scans stay correct
//
// The registry starts with one block of Config.MaxThreads slots (the
// *initial* capacity). When Register finds neither a free slot nor room in
// the tail block, it allocates a new block — sized to double the total slot
// count — fully initializes every published cell to the scheme's idle
// sentinel (initWord), and only then publishes it with a single seq-cst
// store of the previous tail's next pointer. Scans, epoch advances and
// grace-period waits walk the chain through seq-cst loads of those next
// pointers, visiting every slot of every block published at that moment.
//
// A scan that misses a block B (loads next == nil before B's publication in
// the seq-cst total order) is still safe, for every scheme, by one shared
// argument: a session slot in B cannot act before Register returns, and B's
// publication precedes Register's return. So if a scanner's chain-walk load
// precedes B's publication, then *every* memory operation of every session
// in B — era/hazard/epoch/version publication and, crucially, every load of
// the data structure — is later in the seq-cst order than the scanner's
// walk, and therefore later than the unlink that preceded the retirement
// being scanned. A reader that started after an object was unlinked cannot
// reach the object (for HP it fails validation; for HE/IBR it cannot load a
// reference at all; for EBR/URCU it is the standard new-reader argument),
// so failing to observe its slot cannot free anything it holds. Idle and
// free slots hold initWord in every cell, so scans skip them by value —
// there is no in-use flag to race on.

// retiredListState is the owner-session-only reclamation state: the retired
// list itself plus the scratch snapshot buffers reused by every scan pass
// (so a scan allocates nothing in steady state).
type retiredListState struct {
	refs  []mem.Ref
	spare []mem.Ref // collects the to-free partition during a scan pass
	eras  EraSnapshot
	ivals IntervalSnapshot
}

// retiredList pads retiredListState out to a whole number of cache lines so
// neighbouring sessions' list headers never share a line. The pad length is
// computed from unsafe.Sizeof, so adding a field to the state struct can
// never silently unbalance it.
type retiredList struct {
	retiredListState
	_ [(atomicx.CacheLineSize - unsafe.Sizeof(retiredListState{})%atomicx.CacheLineSize) % atomicx.CacheLineSize]byte
}

// Slot is one session's registry entry: the published cells every scan
// reads (hazard eras for HE, hazard pointers for HP, the epoch announcement
// for EBR, the [lower, upper] interval for IBR, the reader version for
// URCU) plus the owner-only retired list. Slots are created by growth,
// never destroyed; Unregister resets the published cells to the scheme's
// idle sentinel and recycles the Slot through the free list.
type Slot struct {
	id    int
	words []atomicx.PaddedUint64
	rl    retiredList
}

// ID returns the session id this slot was created with. Ids are dense,
// stable for the slot's lifetime, and double as the arena shard id.
func (s *Slot) ID() int { return s.id }

// Word returns the i-th published cell.
func (s *Slot) Word(i int) *atomicx.PaddedUint64 { return &s.words[i] }

// Words returns the slot's published cells for scan loops.
func (s *Slot) Words() []atomicx.PaddedUint64 { return s.words }

// SlotBlock is one link of the registry chain. The slots slice is immutable
// after the block is published; only the next pointer is ever written.
type SlotBlock struct {
	slots []Slot
	next  atomic.Pointer[SlotBlock]
}

// Slots returns the block's slots for scan loops.
func (b *SlotBlock) Slots() []Slot { return b.slots }

// Next returns the next published block, or nil at the current tail.
func (b *SlotBlock) Next() *SlotBlock { return b.next.Load() }

// Handle is a registered SMR session. It owns a Slot and caches direct
// pointers to everything the per-operation hot paths touch — the published
// cells, the retired list, and the statistics/instrumentation stripes — so
// Protect/Retire/BeginOp perform no registry indexing of any kind.
//
// The exported scratch fields (Held, Lo, Hi, RetireCount) are owner-only
// storage that the scheme packages interpret; reclaim itself never reads
// them. Hazard Eras keeps its per-index held eras in Held and its
// min/max-mode envelope in Lo/Hi; IBR keeps its interval mirror in Lo/Hi;
// reference counting keeps held refs in Held. They are reset on Register.
type Handle struct {
	dom Domain
	// hot is what Protect and Retire dispatch to, chosen once by
	// Base.makeHandle: the scheme itself, or observedDomain wrapping it when
	// the domain has obs attached. The wrappers are then a single interface
	// call that inlines into their callers, and an unobserved session pays
	// nothing for observability on the per-node path.
	hot  Domain
	base *Base
	slot *Slot

	// Words aliases the slot's published cells (Words[i] is the paper's
	// he[tid][i]); scheme Protect implementations store through it.
	Words []atomicx.PaddedUint64

	// Held is per-protection-index owner-only state: held eras for HE,
	// held refs (as raw uint64) for RC. len == Config.Slots.
	Held []uint64
	// Lo, Hi are the owner-only mirror of a published [min, max] pair
	// (HE min/max mode, IBR interval).
	Lo, Hi uint64
	// RetireCount counts Retire calls for k-advance / advance-every-k.
	RetireCount uint64

	retStripe  *atomicx.PaddedInt64
	freeStripe *atomicx.PaddedInt64
	scanStripe *atomicx.PaddedInt64

	// Byte-granular companions (class-aware footprints; see Base.classBytes).
	retBytesStripe  *atomicx.PaddedInt64
	freeBytesStripe *atomicx.PaddedInt64

	ins *insStripes // nil when instrumentation is off

	// Observability caches; all nil when the domain has no obs attached.
	// Protect and Retire read them only inside observedDomain; the other
	// hot paths pay one untaken branch. The tick counters and scan
	// scratch are owner-only plain fields (a Handle has one owner session).
	obsRing  *obs.Ring          // flight-recorder stripe
	obsProt  *obs.LatencyStripe // protect-latency histogram stripe
	obsRet   *obs.LatencyStripe // retire-latency histogram stripe
	obsScan  *obs.LatencyStripe // scan-latency histogram stripe
	obsMask  uint64             // sample when tick&mask == 0
	obsTrace *obs.Tracer        // per-ref lifecycle tracer (nil unless enabled)

	obsTickProt  uint64 // Protect-bracket sampling tick
	obsTickRet   uint64 // Retire-bracket sampling tick
	obsTickPush  uint64 // PushRetired EvRetire sampling tick
	obsTickEra   uint64 // ObsEra EvEra sampling tick
	obsScanT0    int64  // scan start timestamp (NoteScan..NoteScanEnd)
	obsScanFreed int64  // freeStripe reading at scan start

	// Wrapper is owner-only storage for a layer wrapping this handle (the
	// public smr package parks its Guard here). Because Release keeps the
	// Handle in the domain pool, the wrapper rides along and the wrapping
	// layer's Acquire path allocates nothing in steady state. reclaim itself
	// never reads it.
	Wrapper any
}

// ID returns the session id (dense; doubles as the arena shard id).
func (h *Handle) ID() int { return h.slot.id }

// Domain returns the domain this session belongs to.
func (h *Handle) Domain() Domain { return h.dom }

// Hot returns what Protect and Retire dispatch to: the session's scheme, or
// the decorator that observes it when the domain has obs attached. It is
// fixed for the handle's lifetime, so a wrapping layer may cache it.
func (h *Handle) Hot() Domain { return h.hot }

// BeginOp opens a read-side critical section on this session.
func (h *Handle) BeginOp() { h.dom.BeginOp(h) }

// EndOp closes the critical section, dropping all protections.
func (h *Handle) EndOp() { h.dom.EndOp(h) }

// Protect loads *src under protection index i (the paper's
// get_protected(tid, i, src) with the tid folded into the session): one
// interface dispatch, to the scheme or to its observing decorator.
func (h *Handle) Protect(index int, src *atomic.Uint64) mem.Ref {
	return h.hot.Protect(h, index, src)
}

// Retire declares ref unlinked and due for eventual reclamation.
func (h *Handle) Retire(ref mem.Ref) { h.hot.Retire(h, ref) }

// observedDomain is the Handle dispatch target of a domain with obs
// attached. One Protect bracket in every 2^SampleShift is timed into the
// protect-latency histogram, and one Retire bracket — the whole scheme
// Retire, including any scan it triggers — into the retire-latency
// histogram, which is what makes the amortization tail (one in threshold
// retires pays the scan) visible. With lifecycle tracing on, every protect
// of a sampled ref also lands on its span.
type observedDomain struct{ Domain }

func (o *observedDomain) Protect(h *Handle, index int, src *atomic.Uint64) mem.Ref {
	h.obsTickProt++
	if h.obsTickProt&h.obsMask == 0 {
		t0 := obs.Now()
		ref := o.Domain.Protect(h, index, src)
		h.obsProt.Record(obs.Now() - t0)
		h.traceProtect(ref)
		return ref
	}
	ref := o.Domain.Protect(h, index, src)
	h.traceProtect(ref)
	return ref
}

func (o *observedDomain) Retire(h *Handle, ref mem.Ref) {
	h.obsTickRet++
	if h.obsTickRet&h.obsMask == 0 {
		t0 := obs.Now()
		o.Domain.Retire(h, ref)
		h.obsRet.Record(obs.Now() - t0)
		return
	}
	o.Domain.Retire(h, ref)
}

// traceProtect lands a protect event on a sampled ref's lifecycle span.
func (h *Handle) traceProtect(ref mem.Ref) {
	tr := h.obsTrace
	if tr == nil || ref.IsNil() {
		return
	}
	if r := uint64(ref.Unmarked()); tr.Sampled(r) {
		tr.Event(r, obs.SpanProtect, h.slot.id, 0)
	}
}

// Release parks the live session in the domain pool for Acquire to reuse.
func (h *Handle) Release() { h.dom.Release(h) }

// Unregister permanently closes the session (final scan + orphan handoff).
func (h *Handle) Unregister() { h.dom.Unregister(h) }

// ---- owner-only retired-list operations (scheme building blocks) --------

// PushRetired appends ref to the session's retired list and bumps its
// retire stripe. The high-water fold happens at scan/stats time, keeping
// this hot path free of shared cache lines. With observability attached,
// one push in every 2^SampleShift lands an EvRetire flight-recorder event
// carrying the retired-list depth — sampled here (on its own tick, since
// schemes reach this through d.Retire as well as h.Retire) so the recorder
// rides every retire path without unsampled ring traffic on it.
func (h *Handle) PushRetired(ref mem.Ref) {
	schedtest.Point(schedtest.PointRetire)
	rl := &h.slot.rl.retiredListState
	rl.refs = append(rl.refs, ref.Unmarked())
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	if h.obsRing != nil {
		h.obsTickPush++
		if h.obsTickPush&h.obsMask == 0 {
			h.obsRing.Record(obs.EvRetire, h.slot.id, uint64(len(rl.refs)))
		}
	}
	if tr := h.obsTrace; tr != nil {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Retire(r, h.base.Alloc.Header(ref).RetireEra, h.slot.id)
		}
	}
}

// NoteRetired updates retirement accounting without touching any retired
// list — for schemes (reference counting) that reclaim inline. It takes the
// retired ref so the byte accounting stays class-aware even without a list.
// The sampled EvRetire event carries depth 0: inline schemes keep no
// retired list.
func (h *Handle) NoteRetired(ref mem.Ref) {
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	h.base.observePeak()
	if h.obsRing != nil {
		h.obsTickPush++
		if h.obsTickPush&h.obsMask == 0 {
			h.obsRing.Record(obs.EvRetire, h.slot.id, 0)
		}
	}
	if tr := h.obsTrace; tr != nil {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Retire(r, h.base.Alloc.Header(ref).RetireEra, h.slot.id)
		}
	}
}

// ScanDue reports whether the session's retired list has reached the scan
// threshold. Schemes call it after PushRetired; with the default threshold
// of one this is true after every retire, reproducing Algorithm 3.
func (h *Handle) ScanDue() bool {
	return len(h.slot.rl.refs) >= h.base.scanThreshold
}

// Retired returns the session's retired list for in-place scanning. The
// caller owns the slice and must write back the survivor set with
// SetRetired.
func (h *Handle) Retired() []mem.Ref { return h.slot.rl.refs }

// SetRetired replaces the session's retired list after a scan pass.
func (h *Handle) SetRetired(refs []mem.Ref) { h.slot.rl.refs = refs }

// EraScratch returns the session's reusable era-snapshot buffer.
func (h *Handle) EraScratch() *EraSnapshot { return &h.slot.rl.eras }

// IntervalScratch returns the session's reusable interval-snapshot buffer.
func (h *Handle) IntervalScratch() *IntervalSnapshot { return &h.slot.rl.ivals }

// FreeRetired frees ref through the allocator — into the session's arena
// magazine when the allocator is sharded — and bumps the freed stripe.
func (h *Handle) FreeRetired(ref mem.Ref) {
	b := h.base
	schedtest.Point(schedtest.PointFree)
	if g := b.freeGuard; g != nil {
		g(ref)
	}
	if b.sharded != nil {
		b.sharded.FreeAt(h.slot.id, ref)
	} else {
		b.Alloc.Free(ref)
	}
	h.freeStripe.Add(1)
	if h.freeBytesStripe != nil {
		h.freeBytesStripe.Add(b.refBytes(ref))
	}
	if h.obsRing != nil {
		h.obsRing.Record(obs.EvFree, h.slot.id, 1)
	}
	if tr := h.obsTrace; tr != nil {
		if r := uint64(ref.Unmarked()); tr.Sampled(r) {
			tr.Free(r, h.slot.id)
		}
	}
}

// ReclaimUnprotected runs the free half of a scan pass: it partitions the
// session's retired list with the scheme-supplied predicate, keeps the
// protected survivors in place, and frees the rest as one batch. Batching
// is what keeps the amortized cost low — the allocator folds the whole
// batch into one counter update (FreeBatchAt on sharded allocators) and the
// freed stripe is bumped once per scan, so the per-object cost is the
// predicate plus the slot release, with no atomic counter traffic.
func (h *Handle) ReclaimUnprotected(protected func(ref mem.Ref) bool) {
	st := &h.slot.rl.retiredListState
	keep := st.refs[:0]
	toFree := st.spare[:0]
	tr := h.obsTrace
	for _, obj := range st.refs {
		if protected(obj) {
			keep = append(keep, obj)
			if tr != nil {
				// A scan pass visited this sampled ref and left it pinned:
				// record the skip so the span shows how many passes it survived.
				if r := uint64(obj); tr.Sampled(r) {
					tr.Event(r, obs.SpanSkip, h.slot.id, 0)
				}
			}
		} else {
			toFree = append(toFree, obj)
		}
	}
	st.refs = keep
	if len(toFree) == 0 {
		return
	}
	b := h.base
	schedtest.Point(schedtest.PointFree)
	if g := b.freeGuard; g != nil {
		for _, ref := range toFree {
			g(ref)
		}
	}
	if b.sharded != nil {
		b.sharded.FreeBatchAt(h.slot.id, toFree)
	} else {
		for _, ref := range toFree {
			b.Alloc.Free(ref)
		}
	}
	h.freeStripe.Add(int64(len(toFree)))
	if h.freeBytesStripe != nil {
		freedBytes := int64(0)
		for _, obj := range toFree {
			freedBytes += h.base.refBytes(obj)
		}
		h.freeBytesStripe.Add(freedBytes)
	}
	if h.obsRing != nil {
		// One event for the whole batch: scans are where frees cluster, and
		// the batch size is the interesting number.
		h.obsRing.Record(obs.EvFree, h.slot.id, uint64(len(toFree)))
	}
	if tr != nil {
		for _, obj := range toFree {
			if r := uint64(obj); tr.Sampled(r) {
				tr.Free(r, h.slot.id)
			}
		}
	}
	st.spare = toFree[:0]
}

// TraceHandoff lands a handoff event on a sampled ref's lifecycle span —
// schemes and the offload pipeline call it when a retired ref changes hands
// (a Hyaline batch distribution, an offload enqueue). value carries the
// destination: a worker index or a receiving-session count. One untaken
// branch when tracing is off.
func (h *Handle) TraceHandoff(ref mem.Ref, value uint64) {
	tr := h.obsTrace
	if tr == nil {
		return
	}
	if r := uint64(ref.Unmarked()); tr.Sampled(r) {
		tr.Event(r, obs.SpanHandoff, h.slot.id, value)
	}
}

// NoteScan records one reclamation pass over a retired list and folds the
// striped counters into the pending high-water mark. Scans sample the peak
// immediately after the pushes that triggered them, preserving the
// PeakPending semantics the scan-per-retire implementation had. With
// observability attached it also opens the scan bracket: timestamp and
// freed-stripe baseline for NoteScanEnd, plus an EvScanStart event carrying
// the candidate count. Scans are amortized-rare, so these are unsampled.
func (h *Handle) NoteScan() {
	h.scanStripe.Add(1)
	h.base.observePeak()
	if h.obsRing != nil {
		h.obsScanT0 = obs.Now()
		h.obsScanFreed = h.freeStripe.Load()
		h.obsRing.Record(obs.EvScanStart, h.slot.id, uint64(len(h.slot.rl.refs)))
	}
}

// NoteScanEnd closes the bracket NoteScan opened: the elapsed time goes to
// the scan-latency histogram and an EvScanEnd event carries the number of
// nodes this session freed during the pass. Schemes call it at every exit
// of their scan routine; it is a single untaken branch when obs is off.
func (h *Handle) NoteScanEnd() {
	if h.obsRing == nil {
		return
	}
	h.obsScan.Record(obs.Now() - h.obsScanT0)
	freed := h.freeStripe.Load() - h.obsScanFreed
	if freed < 0 {
		freed = 0
	}
	h.obsRing.Record(obs.EvScanEnd, h.slot.id, uint64(freed))
}

// Abandon moves the session's remaining retired objects to the shared
// orphan pool. Called by scheme Unregister implementations after a final
// scan, so a departing session's still-protected leftovers are adopted
// (and eventually freed) by whichever session scans next instead of
// leaking.
func (h *Handle) Abandon() { h.base.abandon(h.slot) }

// AdoptOrphans moves any abandoned objects into the session's retired list
// so the scan about to run tests them too. The empty-pool fast path is one
// atomic load, so scans pay nothing when no session has unregistered.
func (h *Handle) AdoptOrphans() {
	b := h.base
	if b.orphanLoad.Load() == 0 {
		return
	}
	b.orphanMu.Lock()
	adopted := b.orphans
	b.orphans = nil
	b.orphanLoad.Store(0)
	b.orphanMu.Unlock()
	h.slot.rl.refs = append(h.slot.rl.refs, adopted...)
}

// ---- instrumentation (cached stripes; nil-guarded, branch-only when off) -

// ObsEra records an EvEra flight-recorder event when this session advances
// the scheme's global era/epoch/version clock. HE and IBR advance the clock
// on every retire by default, so the event is sampled on its own tick (the
// recorded value is the clock reading itself, so gaps between samples lose
// nothing — the progression is reconstructible); when obs is off this is
// one untaken branch.
func (h *Handle) ObsEra(clock uint64) {
	if h.obsRing != nil {
		h.obsTickEra++
		if h.obsTickEra&h.obsMask == 0 {
			h.obsRing.Record(obs.EvEra, h.slot.id, clock)
		}
	}
}

// insStripes is one session's stripe of each Instrument counter, behind a
// single Handle pointer so an instrumentation check is one nil test.
type insStripes struct {
	loads, stores, rmws, visits *atomicx.PaddedInt64
}

// Instrumented reports whether the domain counts this session's atomic
// operations. A scheme's Protect tests it once, on its fast path, and moves
// the counting to its slow path.
func (h *Handle) Instrumented() bool { return h.ins != nil }

// InsVisit records one Protect call (one node visited) by this session.
func (h *Handle) InsVisit() {
	if h.ins != nil {
		h.ins.visits.Add(1)
	}
}

// InsLoad records one seq-cst atomic load issued by this session.
func (h *Handle) InsLoad() {
	if h.ins != nil {
		h.ins.loads.Add(1)
	}
}

// InsStore records one seq-cst atomic store issued by this session.
func (h *Handle) InsStore() {
	if h.ins != nil {
		h.ins.stores.Add(1)
	}
}

// InsRMW records one atomic read-modify-write issued by this session.
func (h *Handle) InsRMW() {
	if h.ins != nil {
		h.ins.rmws.Add(1)
	}
}
