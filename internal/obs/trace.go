package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Per-ref lifecycle tracing. A configurable fraction of allocations is
// tagged at Alloc time and followed through its whole life — alloc →
// publish → protect → retire → offload handoff → scan-pass skip → free —
// so that a pending-bytes spike can be explained by naming the refs that
// are pinned, the sessions pinning them, and how long each has waited.
//
// The sampling decision is a pure function of the ref's packed identity
// (a splitmix64 finalizer over the unmarked word), so every hook site can
// recompute it independently with five ALU ops and no shared state. Slot
// reuse is uncorrelated with sampling because the arena bumps the ref's
// generation bits on free: the same slot hashes differently each life.
//
// Cost discipline: untraced refs pay exactly one nil-check plus the hash
// per hook; traced refs take a sharded mutex around a map entry. Spans,
// events per span, and the completed-span backlog are all hard-capped —
// overflow increments the drop counter folded into smr_obs_dropped_total
// rather than growing without bound.

// TraceConfig sizes the per-ref lifecycle tracer. Zero values take
// defaults; the tracer only exists when Enabled is set.
type TraceConfig struct {
	// Enabled builds a Tracer for the domain. Disabled domains keep every
	// trace hook at one untaken nil-pointer branch.
	Enabled bool
	// SampleShift selects one allocation in 2^SampleShift for tracing
	// (decision hashed from the ref identity). 0 means the default of 10
	// (1 in 1024); use SampleAll for exhaustive tracing in tests.
	SampleShift uint
	// SampleAll traces every allocation. Test and demo use.
	SampleAll bool
	// MaxLive caps concurrently open spans (across all shards); allocations
	// sampled past the cap are dropped and counted. Default 4096.
	MaxLive int
	// MaxEvents caps the per-span event list; further events increment the
	// span's Truncated counter and the domain drop counter. Default 48.
	MaxEvents int
	// MaxDone caps the completed-span backlog awaiting a sampler drain.
	// Default 1024.
	MaxDone int
	// TopK is the size of the longest-pinned table in snapshots. Default 8.
	TopK int
}

func (c TraceConfig) defaulted() TraceConfig {
	if c.SampleShift == 0 && !c.SampleAll {
		c.SampleShift = 10
	}
	if c.SampleAll {
		c.SampleShift = 0
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 4096
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 48
	}
	if c.MaxDone <= 0 {
		c.MaxDone = 1024
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	return c
}

// RefSpan is the recorded lifecycle of one traced ref. Ref is the packed
// arena reference (mark stripped); eras are zero for schemes without a
// clock. A span is complete once FreeT is set; incomplete spans belong to
// refs still live (or still pending) in the domain.
type RefSpan struct {
	Ref       uint64  `json:"ref"`
	BirthEra  uint64  `json:"birth_era,omitempty"`
	RetireEra uint64  `json:"retire_era,omitempty"`
	AllocT    int64   `json:"alloc_t_ns"`
	RetireT   int64   `json:"retire_t_ns,omitempty"`
	FreeT     int64   `json:"free_t_ns,omitempty"`
	Truncated int64   `json:"truncated_events,omitempty"`
	Events    []Event `json:"events"`
}

// PinHolder attributes a pinned ref to one session: the session's
// published era fell inside the span's [birth, retire] window at snapshot
// time, so every scan must keep the ref alive on its behalf.
type PinHolder struct {
	Session int    `json:"session"`
	Era     uint64 `json:"era"`
}

// PinnedRef is one row of the longest-pinned table: a traced ref retired
// but not yet freed, ordered by retire-age.
type PinnedRef struct {
	Ref       uint64      `json:"ref"`
	AgeNs     int64       `json:"age_ns"`
	BirthEra  uint64      `json:"birth_era,omitempty"`
	RetireEra uint64      `json:"retire_era,omitempty"`
	Holders   []PinHolder `json:"holders,omitempty"`
}

const traceShards = 16

type traceShard struct {
	mu    sync.Mutex
	spans map[uint64]*RefSpan
	_     [40]byte // keep shard locks off each other's cache lines
}

// Tracer records sampled per-ref lifecycle spans for one domain. All
// methods are safe for concurrent use. The sampling decision is the
// tracer's own: untraced refs never reach the sharded maps.
type Tracer struct {
	cfg     TraceConfig
	mask    uint64 // mix(ref)&mask == 0 → traced
	liveCap int    // per-shard open-span cap
	shards  [traceShards]traceShard
	age     *Histogram // retire→free latency (reclamation age)
	drops   atomic.Int64
	doneMu  sync.Mutex
	done    []*RefSpan
	// retireEra reads a retired ref's retire era; installed by the reclaim
	// wiring (SetRetireEra), nil records zero eras.
	retireEra func(ref uint64) uint64
}

func newTracer(cfg TraceConfig, sessions int) *Tracer {
	cfg = cfg.defaulted()
	t := &Tracer{
		cfg:     cfg,
		mask:    1<<cfg.SampleShift - 1,
		liveCap: (cfg.MaxLive + traceShards - 1) / traceShards,
		age:     NewHistogram(sessions),
	}
	for i := range t.shards {
		t.shards[i].spans = make(map[uint64]*RefSpan)
	}
	return t
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection, so the
// low SampleShift bits of mix64(ref) are an unbiased 1-in-2^shift filter
// over any set of distinct refs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampled reports whether ref is in the traced fraction. Pure function of
// the ref bits, so every hook recomputes it instead of sharing state; 0 is
// the nil ref and is never traced.
func (t *Tracer) sampled(ref uint64) bool { return ref != 0 && mix64(ref)&t.mask == 0 }

func (t *Tracer) shard(ref uint64) *traceShard {
	return &t.shards[(mix64(ref)>>32)&(traceShards-1)]
}

// SetRetireEra installs the lookup that reads a retired ref's retire era
// (the arena header stamp). Wiring time only, like the Domain sources.
func (t *Tracer) SetRetireEra(fn func(ref uint64) uint64) { t.retireEra = fn }

// Alloc opens a span when ref is in the traced fraction. session is -1
// when the allocation site has no session identity.
//
// Gate and open are split for code layout alone: the one-function form
// moves core.(*Eras).Protect from 32 to 0 mod 64 in the reclaim test
// binary, and BenchmarkHandleOpsObs then reads over 10% slower in every
// mode, obs off included (go tool nm -n shows the shift).
func (t *Tracer) Alloc(ref uint64, session int) {
	if t.sampled(ref) {
		t.open(ref, session)
	}
}

func (t *Tracer) open(ref uint64, session int) {
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	if _, ok := sh.spans[ref]; ok {
		// A stale span for this exact ref means a free was never observed
		// (e.g. tracing attached mid-life in tests). Replace it and count
		// the loss rather than interleaving two lives.
		t.drops.Add(1)
	} else if len(sh.spans) >= t.liveCap {
		sh.mu.Unlock()
		t.drops.Add(1)
		return
	}
	sp := &RefSpan{Ref: ref, AllocT: now}
	sp.Events = append(sp.Events, Event{T: now, Session: session, Kind: EvAlloc})
	sh.spans[ref] = sp
	sh.mu.Unlock()
}

// record lands one event on a traced ref's open span; callers test sampled
// first. Publish stamps the birth era (value); retire stamps the retire era
// and starts the retire→free age clock; free closes the span, feeds the
// reclamation-age histogram and moves the span to the completed backlog
// for the sampler to drain. An event with no open span (alloc-time drop,
// or the cap was hit) is ignored.
func (t *Tracer) record(ref uint64, kind Kind, session int, value uint64) {
	if kind == EvRetire && t.retireEra != nil {
		value = t.retireEra(ref)
	}
	now := Now()
	sh := t.shard(ref)
	sh.mu.Lock()
	sp, ok := sh.spans[ref]
	if !ok {
		sh.mu.Unlock()
		return
	}
	switch kind {
	case EvPublish:
		sp.BirthEra = value
	case EvRetire:
		sp.RetireT, sp.RetireEra = now, value
	case EvFree:
		delete(sh.spans, ref)
		sp.FreeT = now
	}
	if len(sp.Events) < t.cfg.MaxEvents {
		sp.Events = append(sp.Events, Event{T: now, Session: session, Kind: kind, Value: value})
	} else {
		sp.Truncated++
		t.drops.Add(1)
	}
	sh.mu.Unlock()
	if kind != EvFree {
		return
	}
	if sp.RetireT > 0 {
		t.age.Record(max(session, 0), now-sp.RetireT)
	}
	t.doneMu.Lock()
	if len(t.done) < t.cfg.MaxDone {
		t.done = append(t.done, sp)
	} else {
		t.drops.Add(1)
	}
	t.doneMu.Unlock()
}

// DrainDone removes and returns the completed spans accumulated since the
// last drain (the sampler serializes them as JSONL span lines).
func (t *Tracer) DrainDone() []*RefSpan {
	t.doneMu.Lock()
	out := t.done
	t.done = nil
	t.doneMu.Unlock()
	return out
}

// LiveCount returns the number of open spans.
func (t *Tracer) LiveCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// LiveSpans returns deep-enough copies of the open spans (events cloned)
// for offline inspection in tests and drain-time audits.
func (t *Tracer) LiveSpans() []RefSpan {
	var out []RefSpan
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, sp := range sh.spans {
			c := *sp
			c.Events = append([]Event(nil), sp.Events...)
			out = append(out, c)
		}
		sh.mu.Unlock()
	}
	return out
}

// Drops returns the tracer-side dropped-event count (span-cap, event-cap
// and backlog-cap losses).
func (t *Tracer) Drops() int64 { return t.drops.Load() }

// AgeSnapshot folds the reclamation-age (retire→free latency) histogram.
func (t *Tracer) AgeSnapshot() HistSnapshot { return t.age.Snapshot() }

// Pinned returns the top-K longest-pinned traced refs: spans retired but
// not yet freed, oldest retire first. Holder attribution is filled in by
// Domain.Snapshot, which owns the session walk.
func (t *Tracer) Pinned(now int64) []PinnedRef {
	var pinned []PinnedRef
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, sp := range sh.spans {
			if sp.RetireT > 0 {
				pinned = append(pinned, PinnedRef{
					Ref:       sp.Ref,
					AgeNs:     now - sp.RetireT,
					BirthEra:  sp.BirthEra,
					RetireEra: sp.RetireEra,
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].AgeNs > pinned[j].AgeNs })
	if len(pinned) > t.cfg.TopK {
		pinned = pinned[:t.cfg.TopK]
	}
	return pinned
}
