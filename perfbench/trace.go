package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// opSpan is the root span of one structure operation in the traced window.
// Its id is its op id: the worker in the top 16 bits, the worker's sequence
// number below.
type opSpan struct {
	start, end int64 // ns since base
	op         uint64
	key        uint64
	kind       uint8
}

// spanRing keeps a worker's most recent operation spans: one span is
// recorded per operation, and the ring bounds memory however long the
// window runs (recorded counts every span, kept only what the ring holds).
type spanRing struct {
	buf      []opSpan
	recorded uint64
}

func newSpanRing(n int) *spanRing { return &spanRing{buf: make([]opSpan, n)} }

func (r *spanRing) add(s opSpan) {
	r.buf[r.recorded%uint64(len(r.buf))] = s
	r.recorded++
}

// kept returns the retained spans, oldest first.
func (r *spanRing) kept() []opSpan {
	n := uint64(len(r.buf))
	if r.recorded <= n {
		return r.buf[:r.recorded]
	}
	at := r.recorded % n
	return append(append([]opSpan(nil), r.buf[at:]...), r.buf[:at]...)
}

// spanRecord is one line of the span file. Root operation spans carry the
// key and its hop count; ladder batch spans carry the call count.
type spanRecord struct {
	Type   string  `json:"type"`
	Name   string  `json:"name"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent"`
	Op     uint64  `json:"op"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Key    *uint64 `json:"key,omitempty"`
	Hops   *int64  `json:"hops,omitempty"`
	Calls  int64   `json:"calls,omitempty"`
}

// tracer collects the traced run's spans and counter snapshots in memory;
// write puts them in a JSON-lines file when the run ends.
type tracer struct {
	nextID  uint64
	rings   []*spanRing
	spans   []spanRecord // window and ladder spans
	records []any        // host record, counter snapshots
	hops    [numKinds][]int64
}

// spanRingSize bounds each worker's retained operation spans.
const spanRingSize = 1 << 14

func newTracer() *tracer {
	t := &tracer{}
	for i := 0; i < workers; i++ {
		t.rings = append(t.rings, newSpanRing(spanRingSize))
	}
	return t
}

// span records a non-operation span and returns its id. Ids of these spans
// have all top 16 bits set, so they never collide with op ids.
func (t *tracer) span(name string, parent uint64, start, end int64, calls int64) uint64 {
	t.nextID++
	id := uint64(0xFFFF)<<48 | t.nextID
	t.spans = append(t.spans, spanRecord{Type: "span", Name: name, ID: id, Parent: parent, Start: start, End: end, Calls: calls})
	return id
}

func (t *tracer) record(v any) { t.records = append(t.records, v) }

// counts returns how many operation spans were recorded and kept.
func (t *tracer) counts() (recorded, kept int64) {
	for _, r := range t.rings {
		recorded += int64(r.recorded)
		kept += int64(min(r.recorded, uint64(len(r.buf))))
	}
	return recorded, kept
}

// write stores everything collected as JSON lines in path: the records,
// the window and ladder spans, then every kept operation span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	var lines []any
	lines = append(lines, t.records...)
	for _, s := range t.spans {
		lines = append(lines, s)
	}
	for _, r := range t.rings {
		for _, s := range r.kept() {
			key := s.key
			rec := spanRecord{Type: "span", Name: "op." + kindNames[s.kind], ID: s.op, Op: s.op, Start: s.start, End: s.end, Key: &key}
			if tbl := t.hops[s.kind]; int(s.key) < len(tbl) {
				h := tbl[s.key]
				rec.Hops = &h
			}
			lines = append(lines, rec)
		}
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
