package reclaim

import (
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Config carries the construction parameters common to all schemes,
// mirroring the paper's HazardEras(maxHEs, maxThreads) constructor.
type Config struct {
	// MaxThreads is the *initial* session capacity (the paper's
	// MAX_THREADS). Unlike the paper's fixed arrays, the registry grows by
	// publishing additional slot blocks when more sessions register, so
	// this is a sizing hint, not a limit.
	MaxThreads int
	// Slots is the number of protection indices per session (the paper's
	// maxHEs / maxHPs; the Maged-Harris list needs 3).
	Slots int
	// ScanR is the amortization factor for batch-triggered scanning
	// (Michael's R factor generalized to eras): a session scans its retired
	// list only once the list holds more than ScanR*MaxThreads*Slots
	// objects, making Retire O(1) amortized. Zero (the default) keeps the
	// paper's Algorithm 3 behaviour of scanning on every retire. Raising R
	// multiplies the Equation 1 memory bound by R but divides the scan
	// frequency by R*MaxThreads*Slots.
	ScanR int
	// Instrument, when non-nil, enables reader-side atomic-op counting.
	Instrument *Instrument
	// Offload, when Workers > 0, enables the background reclamation
	// pipeline: sessions hand retired batches to N reclaimer goroutines
	// instead of scanning inline, falling back to inline scan when the
	// pending-bytes watermark is reached (see offload.go).
	Offload OffloadConfig
}

// Defaulted returns cfg with zero fields replaced by sane defaults.
func (cfg Config) Defaulted() Config {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 64
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	return cfg
}

// shardedAllocator is implemented by allocators (mem.Arena) that maintain
// per-session free-slot magazines; FreeRetired routes through it when
// available so reclamation feeds slots back to the reclaiming session's own
// magazine instead of the contended global freelist.
type shardedAllocator interface {
	FreeAt(shard int, ref mem.Ref)
	FreeBatchAt(shard int, refs []mem.Ref)
}

// Base bundles the machinery every Domain implementation shares: the
// growing session registry, the handle pool, allocator access, statistics
// and instrumentation. Scheme packages embed it and set Dom to themselves
// at construction time so the generic Register/Acquire/Release paths can
// hand out handles that dispatch back to the scheme.
type Base struct {
	// Dom is the owning scheme; set by the scheme constructor right after
	// NewBase (`d.Base.Dom = d`). Handles created by Register carry it.
	Dom Domain

	Alloc Allocator
	Cfg   Config
	Ins   *Instrument

	sharded shardedAllocator // Alloc, when it supports FreeAt (else nil)

	// The registry chain. head never changes after construction; growth
	// appends blocks by storing the tail's next pointer (seq-cst), which is
	// the publication point scans synchronize on. All other registry state
	// (tail cursor, free-slot list, handle pool, id counter) is mutated
	// only under mu — Register/Unregister/Acquire/Release are cold paths.
	head *SlotBlock

	mu        sync.Mutex
	tail      *SlotBlock
	tailUsed  int     // slots handed out from tail
	total     int     // slots across all published blocks
	freeSlots []*Slot // recycled by Unregister, preferred by Register
	pool      []*Handle

	active atomic.Int64

	// wordsPerSlot/initWord describe the published cells: how many each
	// slot carries and the idle sentinel value scans skip by (noneEra for
	// HE/HP/IBR, the inactive epoch for EBR, unassigned for URCU).
	wordsPerSlot int
	initWord     uint64

	// scanThreshold is the retired-list length at which the owning session
	// must run a scan; 1 reproduces the paper's scan-per-retire Retire.
	// Fixed at construction (Config.ScanR, or SetScanThreshold from a scheme
	// option before the first session registers).
	scanThreshold int

	// Retire/free/scan counters are striped by session id so the hot paths
	// touch only their own cache line; Sum folds them on demand.
	retired *atomicx.StripedCounter
	freed   *atomicx.StripedCounter
	scans   *atomicx.StripedCounter
	peak    atomicx.HighWaterMark

	// Byte-granular companions to retired/freed, active ONLY for class-aware
	// allocators (arenas with byte classes, where footprints vary per ref):
	// every retire/free then also adds the object's class footprint, so
	// Pending×SlotBytes approximations are replaced by true per-class byte
	// accounting (Equation 1 is a bound on bytes, not objects, once payloads
	// vary in size). Both are nil for single-class allocators — the common
	// fast path — where PendingBytes is computed as Pending×uniformBytes at
	// snapshot time and the retire/free paths pay nothing.
	retiredBytes *atomicx.StripedCounter
	freedBytes   *atomicx.StripedCounter

	// uniformBytes is the per-object footprint when every ref weighs the
	// same (retiredBytes == nil); 0 when class-aware stripes are active.
	uniformBytes int64

	// classBytes maps Ref.Class() to the block footprint in bytes, resolved
	// once at construction from the allocator (ClassFootprints when the
	// allocator has byte classes, SlotBytes for every class otherwise, 1 as
	// a last resort so the accounting still counts objects).
	classBytes [mem.NumClasses]int64

	// orphans holds retired objects abandoned by unregistered sessions that
	// were still protected at exit time; the next scanning session adopts
	// them. orphanLoad lets scanners skip the lock when the pool is empty.
	orphanMu   sync.Mutex
	orphans    []mem.Ref
	orphanLoad atomic.Int64

	// freeGuard, when non-nil, observes every ref the domain is about to
	// free on its reclamation paths (scan passes and inline frees, not
	// quiescent DrainAll teardown). schedtest's freed-while-protected
	// oracle installs itself here; production domains leave it nil.
	freeGuard func(mem.Ref)

	// poolHits/poolMisses count Acquire calls served from the handle pool
	// versus falling through to a fresh Register. Cold-path counters (both
	// sit under mu's shadow), so plain atomics rather than stripes.
	poolHits   atomic.Int64
	poolMisses atomic.Int64

	// obsDom, when non-nil, is the attached observability domain (same
	// nil-gated discipline as Ins/freeGuard: attach at construction time,
	// before any session registers, and the hot paths pay one untaken
	// branch when it is nil). obsEraClock/obsEraDecode are the scheme's
	// era view, installed by SetObsEraView for schemes that have a global
	// clock; EnableObs turns them into the domain's era-lag gauges.
	obsDom       *obs.Domain
	obsEraClock  func() uint64
	obsEraDecode func(words []atomicx.PaddedUint64) (era uint64, ok bool)

	// probe records the lifecycle facts that have no session: publishes
	// from OnAlloc. Nil unless the obs domain traces refs, so TraceAlloc is
	// one untaken branch otherwise.
	probe *obs.Probe

	// off, when non-nil, is the background reclamation pipeline
	// (Config.Offload; see offload.go). Hot paths pay one nil check.
	off *offloader
}

// SetFreeGuard installs (or, with nil, removes) the reclamation-path free
// observer. Construction/setup time only — the field is read without
// synchronization by every freeing session.
func (b *Base) SetFreeGuard(g func(mem.Ref)) { b.freeGuard = g }

// SetObsEraView installs the scheme's era view for the observability layer:
// clock reads the global era/epoch/version clock, decode extracts the
// oldest era a slot's published cells currently pin (ok=false for idle
// slots). Scheme constructors with a global clock (HE, IBR, EBR, URCU) call
// this; schemes without one (HP, RC, leak) skip it and export no era-lag
// gauges. Construction time only.
func (b *Base) SetObsEraView(clock func() uint64, decode func(words []atomicx.PaddedUint64) (era uint64, ok bool)) {
	b.obsEraClock = clock
	b.obsEraDecode = decode
}

// EnableObs attaches an observability domain: statistics, era-lag gauges
// and per-object byte accounting flow out through d, and every session
// registered from now on records through its own probe built from d
// (nil-gated on the hot paths). Call at construction time, before
// the first Register/Acquire — handles made earlier stay uninstrumented.
// The method is promoted through embedding, so any scheme satisfies
// interface{ EnableObs(*obs.Domain) }.
func (b *Base) EnableObs(d *obs.Domain) {
	b.obsDom = d
	if d == nil {
		return
	}
	d.SetStatsSource(func() obs.Stats {
		s := b.Dom.Stats()
		return obs.Stats{
			Retired:      s.Retired,
			Freed:        s.Freed,
			Pending:      s.Pending,
			PendingBytes: s.PendingBytes,
			PeakPending:  s.PeakPending,
			Scans:        s.Scans,
			EraClock:     s.EraClock,
			PoolHits:     s.PoolHits,
			PoolMisses:   s.PoolMisses,
		}
	})
	if sb, ok := b.Alloc.(interface{ SlotBytes() uintptr }); ok {
		d.SetObjectBytes(uint64(sb.SlotBytes()))
	}
	if cs, ok := b.Alloc.(interface{ ClassStats() []mem.ClassStat }); ok {
		d.SetClassSource(func() []obs.ArenaClass {
			stats := cs.ClassStats()
			out := make([]obs.ArenaClass, len(stats))
			for i, c := range stats {
				out[i] = obs.ArenaClass{
					Class:     c.Class,
					Size:      c.Size,
					Footprint: c.Footprint,
					Allocs:    c.Allocs,
					Frees:     c.Frees,
					Live:      c.Live,
					Slabs:     c.Slabs,
					Capacity:  c.Capacity,
					Spills:    c.Spills,
					Refills:   c.Refills,
				}
			}
			return out
		})
	}
	if o := b.off; o != nil {
		d.SetOffloadSource(o.stats)
		d.AddSchemeSource(o.schemeMetrics)
	}
	// Equation-1-style pending budget for the health monitor: the inline
	// bound tolerates up to scanThreshold unscanned retires per session plus
	// the objects the published slots can pin, doubled for fold skew, plus
	// whatever the offload pipeline is allowed to hold at its watermark.
	// Engineering headroom, not the paper's exact constant — the monitor
	// wants "pending grew past anything the parameters explain", and the
	// stalled-reader runaway crosses any fixed multiple.
	obj := b.classBytes[0]
	budget := 2 * obj * int64(b.Cfg.MaxThreads) * (int64(b.scanThreshold) + 2*int64(b.Cfg.Slots))
	if o := b.off; o != nil {
		budget += o.watermark
	}
	d.SetBudget(budget)
	if tr := d.Tracer(); tr != nil {
		b.probe = d.Probe(-1)
		tr.SetRetireEra(func(ref uint64) uint64 { return b.Alloc.Header(mem.Ref(ref)).RetireEra })
		// The arena is the true allocation point (OnAlloc is publish, not
		// alloc), so spans open there.
		if ah, ok := b.Alloc.(interface{ SetAllocHook(func(int, mem.Ref)) }); ok {
			ah.SetAllocHook(func(shard int, ref mem.Ref) { tr.Alloc(uint64(ref.Unmarked()), shard) })
		}
	}
	if b.obsEraClock != nil && b.obsEraDecode != nil {
		d.SetEraSource(b.obsEraClock, func(yield func(session int, era uint64)) {
			for blk := b.head; blk != nil; blk = blk.Next() {
				slots := blk.Slots()
				for i := range slots {
					s := &slots[i]
					if era, ok := b.obsEraDecode(s.words); ok {
						yield(s.id, era)
					}
				}
			}
		})
	}
}

// TraceAlloc records that ref became shared: schemes call it from OnAlloc,
// passing the birth era they stamped — zero for schemes without a clock.
func (b *Base) TraceAlloc(ref mem.Ref, birthEra uint64) {
	if p := b.probe; p != nil {
		p.Publish(uint64(ref.Unmarked()), birthEra)
	}
}

// NewBase initializes the shared state for a scheme. wordsPerSlot is the
// number of published cells per session slot (protection indices for HE/HP,
// 1 for EBR/URCU announcements, 2 for IBR intervals, 0 for schemes with no
// published state); initWord is the idle sentinel those cells hold whenever
// the slot is unregistered, pooled, or outside a critical section.
func NewBase(alloc Allocator, cfg Config, wordsPerSlot int, initWord uint64) (b Base) {
	cfg = cfg.Defaulted()
	threshold := 1
	if cfg.ScanR > 0 {
		threshold = cfg.ScanR * cfg.MaxThreads * cfg.Slots
	}
	sharded, _ := alloc.(shardedAllocator)
	first := newSlotBlock(0, cfg.MaxThreads, wordsPerSlot, initWord)
	// Resolve the byte-accounting mode: heterogeneous footprints (an arena
	// with byte classes) activate the per-ref striped byte counters; a
	// single-class allocator keeps them nil and derives PendingBytes as
	// Pending×uniformBytes at snapshot time, costing the retire/free hot
	// paths nothing.
	var classBytes [mem.NumClasses]int64
	uniform := int64(0)
	if src, ok := alloc.(interface{ ClassFootprints() []uintptr }); ok {
		for c, fp := range src.ClassFootprints() {
			if c < len(classBytes) {
				classBytes[c] = int64(fp)
			}
		}
	}
	if classBytes == ([mem.NumClasses]int64{}) {
		uniform = 1
		if src, ok := alloc.(interface{ SlotBytes() uintptr }); ok {
			uniform = int64(src.SlotBytes())
		}
		for c := range classBytes {
			classBytes[c] = uniform
		}
	}
	var retiredBytes, freedBytes *atomicx.StripedCounter
	if uniform == 0 {
		retiredBytes = atomicx.NewStripedCounter(cfg.MaxThreads)
		freedBytes = atomicx.NewStripedCounter(cfg.MaxThreads)
	}
	// Filled via the named result (not a local later copied out): Base
	// holds mutexes and atomics, and returning a local by value trips
	// vet's copylocks even though the construction-time copy is benign.
	b = Base{
		Alloc:        alloc,
		Cfg:          cfg,
		Ins:          cfg.Instrument,
		sharded:      sharded,
		head:         first,
		tail:         first,
		total:        cfg.MaxThreads,
		wordsPerSlot: wordsPerSlot,
		initWord:     initWord,
		retired:      atomicx.NewStripedCounter(cfg.MaxThreads),
		freed:        atomicx.NewStripedCounter(cfg.MaxThreads),
		scans:        atomicx.NewStripedCounter(cfg.MaxThreads),
		retiredBytes: retiredBytes,
		freedBytes:   freedBytes,
		uniformBytes: uniform,
		classBytes:   classBytes,
		// The offloader is heap-allocated and holds no *Base (workers
		// resolve the domain lazily at the first handoff), so the Base
		// value the caller embeds shares it safely.
		off:           newOffloader(cfg.Offload, alloc, threshold, cfg.MaxThreads, classBytes),
		scanThreshold: threshold,
	}
	return
}

// newSlotBlock builds an unpublished block whose slots have ids
// [firstID, firstID+n) and every published cell set to initWord. All
// initialization happens before the block becomes reachable, so scans never
// observe a partially built slot.
func newSlotBlock(firstID, n, wordsPerSlot int, initWord uint64) *SlotBlock {
	blk := &SlotBlock{slots: make([]Slot, n)}
	words := make([]atomicx.PaddedUint64, n*wordsPerSlot)
	for i := range blk.slots {
		s := &blk.slots[i]
		s.id = firstID + i
		s.words = words[i*wordsPerSlot : (i+1)*wordsPerSlot : (i+1)*wordsPerSlot]
		if initWord != 0 {
			for w := range s.words {
				s.words[w].Store(initWord)
			}
		}
	}
	return blk
}

// FirstBlock returns the head of the registry chain. Scans walk it via
// SlotBlock.Next, observing every block published before their first load.
func (b *Base) FirstBlock() *SlotBlock { return b.head }

// Register opens a session: it reuses a recycled slot if one is free,
// otherwise takes the next slot of the tail block, otherwise grows the
// chain by publishing a new block that doubles total capacity. It never
// fails. The returned Handle dispatches to b.Dom.
func (b *Base) Register() *Handle {
	b.mu.Lock()
	var s *Slot
	if n := len(b.freeSlots); n > 0 {
		s = b.freeSlots[n-1]
		b.freeSlots = b.freeSlots[:n-1]
	} else {
		if b.tailUsed == len(b.tail.slots) {
			grown := newSlotBlock(b.total, b.total, b.wordsPerSlot, b.initWord)
			b.tail.next.Store(grown) // publication point: block is complete
			b.tail = grown
			b.total += len(grown.slots)
			b.tailUsed = 0
		}
		s = &b.tail.slots[b.tailUsed]
		b.tailUsed++
	}
	b.active.Add(1)
	b.mu.Unlock()
	h := b.makeHandle(s)
	if p := h.probe; p != nil {
		p.Register()
	}
	return h
}

// makeHandle builds a fresh Handle around s with every hot-path pointer
// cached. Scratch fields start zeroed (= noneEra / NilRef), matching the
// idle published cells.
func (b *Base) makeHandle(s *Slot) *Handle {
	h := &Handle{
		dom:        b.Dom,
		hot:        b.Dom,
		base:       b,
		slot:       s,
		Words:      s.words,
		retStripe:  b.retired.Stripe(s.id),
		freeStripe: b.freed.Stripe(s.id),
		scanStripe: b.scans.Stripe(s.id),
	}
	// Byte stripes stay nil for uniform-footprint allocators — the hot paths
	// nil-check and skip (same gating pattern as the probe).
	if b.retiredBytes != nil {
		h.retBytesStripe = b.retiredBytes.Stripe(s.id)
		h.freeBytesStripe = b.freedBytes.Stripe(s.id)
	}
	if b.Cfg.Slots > 0 {
		h.Held = make([]uint64, b.Cfg.Slots)
	}
	if b.Ins != nil {
		h.ins = &insStripes{
			loads:  b.Ins.loads.Stripe(s.id),
			stores: b.Ins.stores.Stripe(s.id),
			rmws:   b.Ins.rmws.Stripe(s.id),
			visits: b.Ins.visits.Stripe(s.id),
		}
	}
	if d := b.obsDom; d != nil {
		h.hot = &observedDomain{b.Dom}
		h.probe = d.Probe(s.id)
	}
	return h
}

// Acquire returns a pooled session parked by Release, or registers a new
// one. The pooled handle keeps its slot, retired list and cached stripes.
func (b *Base) Acquire() *Handle {
	b.mu.Lock()
	if n := len(b.pool); n > 0 {
		h := b.pool[n-1]
		b.pool = b.pool[:n-1]
		b.active.Add(1)
		b.mu.Unlock()
		b.poolHits.Add(1)
		if p := h.probe; p != nil {
			p.Acquire()
		}
		return h
	}
	b.mu.Unlock()
	b.poolMisses.Add(1)
	return b.Register()
}

// Release drops h's protections (via the scheme's EndOp) and parks the live
// session in the pool for Acquire. The retired list stays with the slot; a
// future owner's scans will drain it, and DrainAll reaches it regardless.
//
// The owner-only scratch (Held, Lo/Hi, RetireCount) is cleared here, not
// left for the next Acquire: EndOp resets the *published* cells but not
// their owner-side mirrors, and a stale mirror poisons the next session —
// an HE min/max envelope would extend protection to eras the new owner
// never held, and a leftover RetireCount skews its k-advance cadence. This
// matches Register, whose fresh handles start zeroed.
func (b *Base) Release(h *Handle) {
	b.Dom.EndOp(h)
	for i := range h.Held {
		h.Held[i] = 0
	}
	h.Lo, h.Hi = 0, 0
	h.RetireCount = 0
	if p := h.probe; p != nil {
		p.Release()
	}
	b.mu.Lock()
	b.pool = append(b.pool, h)
	b.active.Add(-1)
	b.mu.Unlock()
}

// Unregister permanently closes h's session: the published cells return to
// the idle sentinel and the slot is recycled for a future Register. Schemes
// that keep retired lists override this to run a final scan and Abandon the
// leftovers first, then call back here.
func (b *Base) Unregister(h *Handle) {
	s := h.slot
	for w := range s.words {
		s.words[w].Store(b.initWord)
	}
	if p := h.probe; p != nil {
		p.Unregister()
	}
	b.mu.Lock()
	b.freeSlots = append(b.freeSlots, s)
	b.active.Add(-1)
	b.mu.Unlock()
}

// ActiveThreads reports the number of live (registered, unpooled) sessions.
func (b *Base) ActiveThreads() int { return int(b.active.Load()) }

// Capacity reports the total slot count across all published blocks.
func (b *Base) Capacity() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// SetScanThreshold sets the scan-trigger length directly. Construction time
// only, like SetFreeGuard: the field is read without synchronization by
// every retiring session. Scheme options with absolute semantics
// (hp.WithScanThreshold) route through this rather than Config.ScanR.
func (b *Base) SetScanThreshold(n int) {
	if n < 1 {
		n = 1
	}
	b.scanThreshold = n
}

// observePeak folds retired-freed and raises the high-water mark. Same
// fold-order/clamp discipline as BaseStats: see pendingFold.
func (b *Base) observePeak() {
	b.peak.Observe(b.pendingFold())
}

// pendingFold reads the freed stripes before the retired stripes and clamps
// the difference at zero. The two folds are not atomic with respect to
// concurrent sessions: with the old retired-then-freed order, a free
// landing between the folds was counted while its (earlier) retire was not,
// so Pending could read below its true value — and below zero near an empty
// domain. Folding freed first inverts the race (a retire landing between
// folds is counted while its free cannot be yet), which only ever biases
// the transient reading high; the clamp covers the residual skew from
// StripedCounter's own non-atomic stripe walk.
func (b *Base) pendingFold() int64 {
	freed := b.freed.Sum()
	retired := b.retired.Sum()
	if pending := retired - freed; pending > 0 {
		return pending
	}
	return 0
}

// abandon moves s's remaining retired objects to the shared orphan pool.
func (b *Base) abandon(s *Slot) {
	leftovers := s.rl.refs
	s.rl.refs, s.rl.survivors = nil, 0
	if len(leftovers) == 0 {
		return
	}
	b.orphanMu.Lock()
	b.orphans = append(b.orphans, leftovers...)
	b.orphanLoad.Store(int64(len(b.orphans)))
	b.orphanMu.Unlock()
}

// DrainAll unconditionally frees every pending retired object in every
// slot's list (registered, pooled, or recycled) and the orphan pool. Only
// safe at quiescence (the paper's destructor).
//
// The background reclamation pipeline (if any) is shut down first: its
// workers run a final drain+scan and unregister — abandoning survivors to
// the orphan pool — and any still-queued segment is flushed directly, so
// the registry walk below observes every outstanding object and Pending
// reads 0 afterwards. Pooled handles need no special casing: Release keeps
// the retired list with the slot, and the walk visits every slot whether
// its session is registered, pooled, or recycled.
func (b *Base) DrainAll() {
	if o := b.off; o != nil {
		o.shutdown(b)
	}
	for blk := b.head; blk != nil; blk = blk.Next() {
		for i := range blk.slots {
			s := &blk.slots[i]
			b.FreeBatchAt(s.id, s.rl.refs)
			s.rl.refs, s.rl.survivors = nil, 0
		}
	}
	b.orphanMu.Lock()
	orphans := b.orphans
	b.orphans = nil
	b.orphanLoad.Store(0)
	b.orphanMu.Unlock()
	b.FreeBatchAt(0, orphans)
}

// refBytes returns the class-aware footprint of the block ref names.
func (b *Base) refBytes(ref mem.Ref) int64 {
	return b.classBytes[ref.Class()&(mem.NumClasses-1)]
}

// FreeBatchAt frees refs through the allocator on behalf of slot id,
// bumping the freed stripes and recording the frees, without requiring a
// live Handle. DrainAll and the offload shutdown use it, and so do schemes
// whose pending objects live outside slot retired lists (Hyaline's
// distributed batches) from their Drain override, where DrainAll's
// registry walk cannot see the objects. Quiescence-only: it skips the
// free-guard oracle.
func (b *Base) FreeBatchAt(id int, refs []mem.Ref) {
	if len(refs) == 0 {
		return
	}
	if b.sharded != nil {
		b.sharded.FreeBatchAt(id, refs)
	} else {
		for _, ref := range refs {
			b.Alloc.Free(ref)
		}
	}
	b.freed.Add(id, int64(len(refs)))
	if b.freedBytes != nil {
		n := int64(0)
		for _, ref := range refs {
			n += b.refBytes(ref)
		}
		b.freedBytes.Add(id, n)
	}
	if d := b.obsDom; d != nil {
		obs.FreeBatchAt(d, id, refs)
	}
}

// BaseStats assembles the common statistics snapshot. The fold doubles as a
// peak observation so PeakPending can never read below the Pending it
// reports alongside. Pending folds freed-before-retired and clamps at zero
// (see pendingFold) so a concurrent retire/free landing between the stripe
// folds can never drive the reading negative.
func (b *Base) BaseStats() Stats {
	freed := b.freed.Sum()
	retired := b.retired.Sum()
	pending := retired - freed
	if pending < 0 {
		pending = 0
	}
	// Byte pending: exact product for uniform footprints, striped fold (same
	// freed-before-retired order and clamp) when class-aware.
	var pendingBytes int64
	if b.retiredBytes == nil {
		pendingBytes = pending * b.uniformBytes
	} else {
		freedBytes := b.freedBytes.Sum()
		retiredBytes := b.retiredBytes.Sum()
		pendingBytes = retiredBytes - freedBytes
		if pendingBytes < 0 {
			pendingBytes = 0
		}
	}
	b.peak.Observe(pending)
	return Stats{
		Retired:      retired,
		Freed:        freed,
		Pending:      pending,
		PendingBytes: pendingBytes,
		PeakPending:  b.peak.Max(),
		Scans:        b.scans.Sum(),
		PoolHits:     b.poolHits.Load(),
		PoolMisses:   b.poolMisses.Load(),
	}
}
