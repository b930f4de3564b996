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
	refs []mem.Ref
	// survivors is how many of refs the last scan pass kept (pinned by
	// other sessions); ScanDue counts only the retirements since then.
	survivors int
	spare     []mem.Ref // collects the to-free partition during a scan pass
	eras      EraSnapshot
	ivals     IntervalSnapshot
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

	// probe records this session's lifecycle facts; nil when the domain
	// has no obs attached. Protect and Retire reach it only inside
	// observedDomain; every other hook is one untaken branch.
	probe *obs.Probe

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
// attached: it brackets the scheme's Protect and Retire with the session
// probe, which times a sample of them and traces the protected ref.
type observedDomain struct{ Domain }

func (o *observedDomain) Protect(h *Handle, index int, src *atomic.Uint64) mem.Ref {
	t0 := h.probe.StartProtect()
	ref := o.Domain.Protect(h, index, src)
	h.probe.Protect(t0, uint64(ref.Unmarked()))
	return ref
}

func (o *observedDomain) Retire(h *Handle, ref mem.Ref) {
	t0 := h.probe.StartRetire()
	o.Domain.Retire(h, ref)
	h.probe.EndRetire(t0)
}

// Release parks the live session in the domain pool for Acquire to reuse.
func (h *Handle) Release() { h.dom.Release(h) }

// Unregister permanently closes the session (final scan + orphan handoff).
func (h *Handle) Unregister() { h.dom.Unregister(h) }

// ---- owner-only retired-list operations (scheme building blocks) --------

// PushRetired appends ref to the session's retired list and bumps its
// retire stripe. The high-water fold happens at scan/stats time, keeping
// this hot path free of shared cache lines.
func (h *Handle) PushRetired(ref mem.Ref) {
	schedtest.Point(schedtest.PointRetire)
	rl := &h.slot.rl.retiredListState
	rl.refs = append(rl.refs, ref.Unmarked())
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	if p := h.probe; p != nil {
		p.Retire(uint64(ref.Unmarked()), uint64(len(rl.refs)))
	}
}

// NoteRetired updates retirement accounting without touching any retired
// list — for schemes (reference counting) that reclaim inline. It takes the
// retired ref so the byte accounting stays class-aware even without a list.
// The recorded depth is 0: inline schemes keep no retired list.
func (h *Handle) NoteRetired(ref mem.Ref) {
	h.retStripe.Add(1)
	if h.retBytesStripe != nil {
		h.retBytesStripe.Add(h.base.refBytes(ref))
	}
	h.base.observePeak()
	if p := h.probe; p != nil {
		p.Retire(uint64(ref.Unmarked()), 0)
	}
}

// ScanDue reports whether the session has retired a scan threshold's worth
// of objects since its last scan pass. Survivors of that pass (objects
// other sessions still pin) do not count: otherwise a stalled reader that
// pins a threshold's worth would make every later retire scan. Schemes
// call it after PushRetired; with the default threshold of one this is
// true after every retire, reproducing Algorithm 3.
func (h *Handle) ScanDue() bool {
	rl := &h.slot.rl
	return len(rl.refs) >= rl.survivors+h.base.scanThreshold
}

// Retired returns the session's retired list for in-place scanning. The
// caller owns the slice and must write back the survivor set with
// SetRetired.
func (h *Handle) Retired() []mem.Ref { return h.slot.rl.refs }

// SetRetired replaces the session's retired list after a scan pass (or a
// handoff); the refs written back are that pass's survivors.
func (h *Handle) SetRetired(refs []mem.Ref) {
	h.slot.rl.refs = refs
	h.slot.rl.survivors = len(refs)
}

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
	if p := h.probe; p != nil {
		p.Free(uint64(ref.Unmarked()))
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
	p := h.probe
	for _, obj := range st.refs {
		if protected(obj) {
			keep = append(keep, obj)
			if p != nil {
				p.Skip(uint64(obj))
			}
		} else {
			toFree = append(toFree, obj)
		}
	}
	st.refs = keep
	st.survivors = len(keep)
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
	if p != nil {
		obs.FreeBatch(p, toFree)
	}
	st.spare = toFree[:0]
}

// TraceHandoff records that a retired ref changed hands — schemes and the
// offload pipeline call it on a Hyaline batch distribution or an offload
// enqueue. value carries the destination: a worker index or
// a receiving-session count.
func (h *Handle) TraceHandoff(ref mem.Ref, value uint64) {
	if p := h.probe; p != nil {
		p.Handoff(uint64(ref.Unmarked()), value)
	}
}

// ObsNow returns obs.Now() when the session is observed and 0 otherwise,
// for timestamps that only the observability layer reads.
func (h *Handle) ObsNow() int64 {
	if h.probe == nil {
		return 0
	}
	return obs.Now()
}

// NoteScan records one reclamation pass over a retired list and folds the
// striped counters into the pending high-water mark. Scans sample the peak
// immediately after the pushes that triggered them, preserving the
// PeakPending semantics the scan-per-retire implementation had. With
// observability attached it also opens the probe's scan bracket over the
// current candidates.
func (h *Handle) NoteScan() {
	h.scanStripe.Add(1)
	h.base.observePeak()
	if p := h.probe; p != nil {
		p.ScanStart(len(h.slot.rl.refs))
	}
}

// NoteScanEnd closes the bracket NoteScan opened. Schemes call it at every
// exit of their scan routine.
func (h *Handle) NoteScanEnd() {
	if p := h.probe; p != nil {
		p.ScanEnd()
	}
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

// ObsEra records that this session advanced the scheme's global
// era/epoch/version clock to clock.
func (h *Handle) ObsEra(clock uint64) {
	if p := h.probe; p != nil {
		p.Era(clock)
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
