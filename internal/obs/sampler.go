package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Sampler periodically folds a set of domains and appends JSON lines — the
// machine-readable form of the Figure-4 pending-over-time curves, plus the
// per-ref lifecycle spans and health alerts layered on top. Every line is a
// Line: schema version V and a Type naming its shape.
//
// cmd/heanalyze reconstructs timelines, age histograms and pin reports
// from the mix offline.
type Sampler struct {
	mu      sync.Mutex
	w       *bufio.Writer
	closer  io.Closer
	domains func() []*Domain
	done    chan struct{}
	wg      sync.WaitGroup
	stopped sync.Once
}

// LineVersion is the sampler schema version every Line carries.
const LineVersion = 1

// Sampler line types.
const (
	LineSnapshot = "snapshot" // one per domain per tick: a DomainSnapshot
	LineSpan     = "span"     // one per completed lifecycle span
	LineAlert    = "alert"    // one per health transition
)

// Line is one sampler JSONL record. Scheme names the domain on snapshot
// and span lines; a snapshot line flattens its DomainSnapshot into the line
// (whose own scheme field Scheme stands in for), a span line carries Span,
// an alert line carries Alert.
type Line struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	*DomainSnapshot
	Scheme string   `json:"scheme,omitempty"`
	Span   *RefSpan `json:"span,omitempty"`
	Alert  *Alert   `json:"alert,omitempty"`
}

// StartSampler samples domains() every interval, writing JSON lines to w.
// The domains callback is re-evaluated each tick so late-attached domains
// are picked up. Call Stop to take a final sample, flush and halt; if w is
// also an io.Closer it is closed.
func StartSampler(w io.Writer, interval time.Duration, domains func() []*Domain) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s := &Sampler{w: bufio.NewWriter(w), domains: domains, done: make(chan struct{})}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample(domains())
			}
		}
	}()
	return s
}

// StartFileSampler opens (creating/truncating) path and samples into it.
func StartFileSampler(path string, interval time.Duration, domains func() []*Domain) (*Sampler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return StartSampler(f, interval, domains), nil
}

func (s *Sampler) sample(doms []*Domain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range doms {
		snap := d.Snapshot()
		s.writeLine(d, Line{V: LineVersion, Type: LineSnapshot, DomainSnapshot: &snap, Scheme: snap.Scheme})
		if tr := d.Tracer(); tr != nil {
			for _, sp := range tr.DrainDone() {
				s.writeLine(d, Line{V: LineVersion, Type: LineSpan, Scheme: d.Name(), Span: sp})
			}
		}
	}
	s.w.Flush()
}

// writeLine marshals one record under the caller-held lock. A marshal
// failure is counted against the domain (smr_obs_dropped_total) instead of
// vanishing.
func (s *Sampler) writeLine(d *Domain, v Line) {
	line, err := json.Marshal(v)
	if err != nil {
		d.NoteDropped(1)
		return
	}
	s.w.Write(line)
	s.w.WriteByte('\n')
}

// WriteAlert appends one health-alert line. The monitor installs this as
// its OnAlert sink; safe for concurrent use with sampling.
func (s *Sampler) WriteAlert(a Alert) {
	line, err := json.Marshal(Line{V: LineVersion, Type: LineAlert, Alert: &a})
	if err != nil {
		return
	}
	s.mu.Lock()
	s.w.Write(line)
	s.w.WriteByte('\n')
	s.w.Flush()
	s.mu.Unlock()
}

// Sample takes one immediate sample outside the ticker, for drivers that
// step the sampler in lockstep with their own phases. Stop takes the final
// one itself.
func (s *Sampler) Sample(doms []*Domain) { s.sample(doms) }

// Stop halts the ticker, joins the sampling goroutine, takes one final
// sample — so a run shorter than the interval still records its end
// state — flushes, and closes the underlying file if any. Deterministic:
// when Stop returns, no sampler goroutine is running and every accepted
// line is on disk.
func (s *Sampler) Stop() {
	s.stopped.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.sample(s.domains())
		if s.closer != nil {
			s.closer.Close()
		}
	})
}
