package obs

import (
	"fmt"
	"sync/atomic"
)

// Kind labels one lifecycle fact. One enum serves both recorders: the
// flight-recorder ring and the per-ref span. The ref kinds follow the
// allocated → shared → protected → retired → freed life of a pointer
// (Meyer & Wolff, arXiv:1910.11714); the rest are scan, clock and session
// facts that only the ring records.
//
// Value carries the fact's number. Ring events: retire = the session's
// retired-list depth after the push, free = nodes freed by the call,
// scan_start = candidate count, scan_end = nodes this session freed during
// the pass, era = the new clock reading, session kinds = the slot id.
// Span events: publish = birth era, retire = retire era, handoff = the
// destination (worker index or receiving-session count), others 0.
type Kind uint32

const (
	EvNone Kind = iota
	EvAlloc
	EvPublish
	EvProtect
	EvRetire
	EvHandoff
	EvSkip
	EvFree
	EvScanStart
	EvScanEnd
	EvEra
	EvAcquire
	EvRelease
	EvRegister
	EvUnregister
)

var kindNames = [...]string{
	EvNone:       "none",
	EvAlloc:      "alloc",
	EvPublish:    "publish",
	EvProtect:    "protect",
	EvRetire:     "retire",
	EvHandoff:    "handoff",
	EvSkip:       "skip",
	EvFree:       "free",
	EvScanStart:  "scan_start",
	EvScanEnd:    "scan_end",
	EvEra:        "era",
	EvAcquire:    "acquire",
	EvRelease:    "release",
	EvRegister:   "register",
	EvUnregister: "unregister",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText makes a Kind serialize as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", b)
}

// Event is one decoded lifecycle record, from a flight-recorder ring or a
// span. Seq is the ring position (0 on span events); Session is -1 when the
// recording site has no session identity (arena allocation, OnAlloc).
type Event struct {
	T       int64  `json:"t_ns"`
	Seq     uint64 `json:"seq,omitempty"`
	Session int    `json:"session"`
	Kind    Kind   `json:"kind"`
	Value   uint64 `json:"value"`
}

// entry is one seqlock-protected ring cell. Every field is atomic so the
// recorder stays clean under -race even when a snapshot races a writer; the
// seq field doubles as the validity protocol: 0 means mid-write, otherwise
// it holds the global position the payload belongs to. A reader that sees
// the same non-zero seq before and after reading the payload has a
// consistent record; anything else is discarded.
type entry struct {
	seq  atomic.Uint64
	t    atomic.Int64
	meta atomic.Uint64 // kind<<32 | session
	val  atomic.Uint64
}

// ring is one flight-recorder stripe: a fixed-capacity power-of-two ring
// overwritten oldest-first. One session writes to it in the common case;
// when session ids exceed the striping hint two sessions may share a ring,
// which the claim-then-publish protocol tolerates (a torn overwrite is
// discarded by the seq check, never misread).
type ring struct {
	pos     atomic.Uint64
	mask    uint64
	entries []entry
}

func (r *ring) init(capacity int) {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r.entries = make([]entry, n)
	r.mask = uint64(n - 1)
}

// record appends one event, overwriting the oldest. Allocation-free.
func (r *ring) record(kind Kind, session int, value uint64) {
	p := r.pos.Add(1)
	e := &r.entries[(p-1)&r.mask]
	e.seq.Store(0) // invalidate before mutating the payload
	e.t.Store(Now())
	e.meta.Store(uint64(kind)<<32 | uint64(uint32(session)))
	e.val.Store(value)
	e.seq.Store(p) // publish
}

// recorded reports how many events have ever been recorded (not the
// readable window, which is capped at the ring capacity).
func (r *ring) recorded() uint64 { return r.pos.Load() }

// dropped reports how many records have been overwritten before any
// snapshot could have read them from the full window: every record past
// the ring capacity displaced an older one. The ring trades age for
// boundedness by design; this makes the trade visible
// (smr_obs_dropped_total) instead of silent.
func (r *ring) dropped() int64 {
	p := r.pos.Load()
	if c := uint64(len(r.entries)); p > c {
		return int64(p - c)
	}
	return 0
}

// appendEvents decodes every currently consistent entry into out. Entries
// being overwritten while we read are skipped — the flight recorder trades
// a lost record under contention for never inventing one.
func (r *ring) appendEvents(out []Event) []Event {
	for i := range r.entries {
		e := &r.entries[i]
		s1 := e.seq.Load()
		if s1 == 0 {
			continue
		}
		t := e.t.Load()
		meta := e.meta.Load()
		val := e.val.Load()
		if e.seq.Load() != s1 {
			continue
		}
		out = append(out, Event{
			T:       t,
			Seq:     s1,
			Session: int(uint32(meta)),
			Kind:    Kind(meta >> 32),
			Value:   val,
		})
	}
	return out
}

// events returns this ring's consistent records in timestamp order.
func (r *ring) events() []Event {
	ev := r.appendEvents(nil)
	sortEvents(ev)
	return ev
}
