package obs

// Probe is one session's recording handle: everything the session's hot
// paths write to, resolved once when the session is built (Domain.Probe).
// Each method is named after the lifecycle fact it records and lands both
// records of that fact: the flight-recorder event and, when the ref is in
// the traced fraction, the span event. The sampling decisions — which
// brackets are timed, which retire and era events reach the ring, which
// refs are traced — are all made here.
//
// The hot-path methods are cheap gates that inline into their callers and
// call out only when there is something to record. Era, Handoff and Publish
// stay out of line instead, so that the reclaim hooks calling them inline
// to a single nil test when no probe is attached. A Probe is owner-only,
// like the session it belongs to: the tick counters and the scan bracket
// are plain fields.
type Probe struct {
	session int
	mask    uint64 // sample when tick&mask == 0
	tracer  *Tracer
	ring    *ring

	tickProt, tickRet, tickPush, tickEra uint64

	protect, retire, scan, offload *LatencyStripe

	scanT0    int64  // ScanStart timestamp
	scanFreed uint64 // nodes this probe freed since ScanStart

	// Sessions build their probes back to back, and every method writes a
	// tick or the scan bracket: the pad rounds the probe up to two whole
	// cache lines (TestProbeFillsCacheLines), so no two share one.
	_ [16]byte
}

// Probe builds the recording handle for session: its ring and latency
// stripes (sessions past the striping hint share them, like the counters),
// the sample mask and the tracer. session is -1 for the domain-level probe
// that records publishes, which have no session.
func (d *Domain) Probe(session int) *Probe {
	return &Probe{
		session: session,
		mask:    1<<d.cfg.SampleShift - 1,
		tracer:  d.tracer,
		ring:    &d.rings[session&d.ringMask],
		protect: d.protect.Stripe(session),
		retire:  d.retire.Stripe(session),
		scan:    d.scan.Stripe(session),
		offload: d.offload.Stripe(session),
	}
}

// StartProtect opens a protect bracket. It returns the start time on one
// call in every 2^SampleShift and 0 on the others, which are not timed.
func (p *Probe) StartProtect() int64 {
	p.tickProt++
	if p.tickProt&p.mask != 0 {
		return 0
	}
	return Now()
}

// Protect closes the bracket StartProtect opened on ref: the elapsed time
// goes to the protect-latency histogram, and a traced ref's span gets a
// protect event.
func (p *Probe) Protect(t0 int64, ref uint64) {
	if t0 != 0 || p.tracer != nil {
		p.protected(t0, ref)
	}
}

func (p *Probe) protected(t0 int64, ref uint64) {
	if t0 != 0 {
		p.protect.since(t0)
	}
	if tr := p.tracer; tr != nil && tr.sampled(ref) {
		tr.record(ref, EvProtect, p.session, 0)
	}
}

// StartRetire opens a retire bracket, sampled like StartProtect. The
// bracket spans the whole scheme Retire, including any scan it triggers,
// which is what makes the amortization tail visible.
func (p *Probe) StartRetire() int64 {
	p.tickRet++
	if p.tickRet&p.mask != 0 {
		return 0
	}
	return Now()
}

// EndRetire closes the bracket StartRetire opened.
func (p *Probe) EndRetire(t0 int64) {
	if t0 != 0 {
		p.retire.since(t0)
	}
}

// Retire records that ref entered the session's retired list, now depth
// long: a ring event on one retire in every 2^SampleShift, and the span's
// retire event. The sample runs on its own tick, since schemes retire
// through their own entry points as well as through the bracket.
func (p *Probe) Retire(ref, depth uint64) {
	p.tickPush++
	if p.tickPush&p.mask == 0 || p.tracer != nil {
		p.retired(ref, depth)
	}
}

func (p *Probe) retired(ref, depth uint64) {
	if p.tickPush&p.mask == 0 {
		p.ring.record(EvRetire, p.session, depth)
	}
	if tr := p.tracer; tr != nil && tr.sampled(ref) {
		tr.record(ref, EvRetire, p.session, 0)
	}
}

// Free records that the session returned ref to the allocator.
func (p *Probe) Free(ref uint64) { FreeBatch(p, []uint64{ref}) }

// FreeBatch records that the session returned refs to the allocator as one
// batch: one ring event carrying the batch size, which is the interesting
// number, and a span free per traced ref.
func FreeBatch[R ~uint64](p *Probe, refs []R) {
	p.scanFreed += uint64(len(refs))
	freeBatch(p.ring, p.tracer, p.session, refs)
}

// FreeBatchAt records a batch free on behalf of slot session without that
// session's probe: the drain and shutdown paths free for slots whose
// sessions are gone. A scan bracket open on that session's probe does not
// count these frees.
func FreeBatchAt[R ~uint64](d *Domain, session int, refs []R) {
	freeBatch(&d.rings[session&d.ringMask], d.tracer, session, refs)
}

func freeBatch[R ~uint64](r *ring, tr *Tracer, session int, refs []R) {
	r.record(EvFree, session, uint64(len(refs)))
	if tr != nil {
		for _, x := range refs {
			if ref := uint64(x); tr.sampled(ref) {
				tr.record(ref, EvFree, session, 0)
			}
		}
	}
}

// Skip records that a scan pass visited ref and left it pinned, so its
// span shows how many passes it survived.
func (p *Probe) Skip(ref uint64) {
	if p.tracer != nil {
		p.skip(ref)
	}
}

func (p *Probe) skip(ref uint64) {
	if p.tracer.sampled(ref) {
		p.tracer.record(ref, EvSkip, p.session, 0)
	}
}

// Handoff records that retired ref changed hands: to an offload worker or
// to the sessions a Hyaline batch was distributed to (to).
//
//go:noinline
func (p *Probe) Handoff(ref, to uint64) {
	if tr := p.tracer; tr != nil && tr.sampled(ref) {
		tr.record(ref, EvHandoff, p.session, to)
	}
}

// Publish records that ref became shared (the scheme's OnAlloc) with the
// birth era it was stamped with; zero for schemes without a clock.
//
//go:noinline
func (p *Probe) Publish(ref, birthEra uint64) {
	if tr := p.tracer; tr != nil && tr.sampled(ref) {
		tr.record(ref, EvPublish, p.session, birthEra)
	}
}

// Era records that the session advanced the scheme's clock to clock. HE
// and IBR advance it on every retire by default, so the event is sampled
// on its own tick; the value is the clock itself, so the progression
// survives the gaps.
//
//go:noinline
func (p *Probe) Era(clock uint64) {
	p.tickEra++
	if p.tickEra&p.mask == 0 {
		p.ring.record(EvEra, p.session, clock)
	}
}

// ScanStart opens a scan bracket over candidates retired nodes. Scans are
// amortized-rare, so the bracket is not sampled.
func (p *Probe) ScanStart(candidates int) {
	p.scanT0 = Now()
	p.scanFreed = 0
	p.ring.record(EvScanStart, p.session, uint64(candidates))
}

// ScanEnd closes the bracket ScanStart opened: the elapsed time goes to the
// scan-latency histogram, and the ring event carries the nodes this
// session freed during the pass.
func (p *Probe) ScanEnd() {
	p.scan.since(p.scanT0)
	p.ring.record(EvScanEnd, p.session, p.scanFreed)
}

// Offloaded records that a batch handed off at t0 has been reclaimed by
// this background-reclaimer session.
func (p *Probe) Offloaded(t0 int64) { p.offload.since(t0) }

// Register records that the session's slot was freshly registered.
func (p *Probe) Register() { p.ring.record(EvRegister, p.session, uint64(p.session)) }

// Unregister records that the session's slot was permanently released.
func (p *Probe) Unregister() { p.ring.record(EvUnregister, p.session, uint64(p.session)) }

// Acquire records that the session was served from the handle pool.
func (p *Probe) Acquire() { p.ring.record(EvAcquire, p.session, uint64(p.session)) }

// Release records that the session was parked in the handle pool.
func (p *Probe) Release() { p.ring.record(EvRelease, p.session, uint64(p.session)) }
