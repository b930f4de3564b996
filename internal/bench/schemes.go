package bench

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hp"
	"repro/internal/hyaline"
	"repro/internal/ibr"
	"repro/internal/leak"
	"repro/internal/obs"
	"repro/internal/rc"
	"repro/internal/reclaim"
	"repro/internal/urcu"
	"repro/internal/wfe"
)

// Factory constructs a reclamation domain over an allocator; it matches
// list.DomainFactory / queue.DomainFactory / bst.DomainFactory.
type Factory func(alloc reclaim.Allocator, cfg reclaim.Config) reclaim.Domain

// Scheme pairs a display name with its domain factory.
type Scheme struct {
	Name string
	Make Factory
}

// obsHub, when non-nil, receives an observability domain for every
// reclamation domain the schemes below construct. Set it (SetObsHub) before
// building structures; nil keeps every domain uninstrumented — the
// zero-overhead default.
var obsHub *obs.Hub

// SetObsHub routes observability for all subsequently constructed scheme
// domains to hub (nil turns it back off). Drivers call this once at startup
// when -metrics/-sample is requested; it is not safe to flip while
// structures are being built concurrently.
func SetObsHub(hub *obs.Hub) { obsHub = hub }

// ObsHub returns the hub installed by SetObsHub, or nil.
func ObsHub() *obs.Hub { return obsHub }

// obsTrace is the lifecycle-tracing configuration applied to every obs
// domain the schemes below construct; the zero value (Enabled false) keeps
// tracing off even when a hub is installed.
var obsTrace obs.TraceConfig

// SetObsTrace turns sampled per-ref lifecycle tracing on for all
// subsequently constructed scheme domains (zero value turns it back off).
// Only takes effect alongside SetObsHub; same construction-time-only
// discipline.
func SetObsTrace(tc obs.TraceConfig) { obsTrace = tc }

// ObsTrace returns the tracing configuration installed by SetObsTrace.
func ObsTrace() obs.TraceConfig { return obsTrace }

// ParseTrace parses the drivers' -trace flag: "" is off, "all" traces every
// allocation, and a number N samples one allocation in 2^N.
func ParseTrace(s string) (obs.TraceConfig, error) {
	switch s {
	case "":
		return obs.TraceConfig{}, nil
	case "all":
		return obs.TraceConfig{Enabled: true, SampleAll: true}, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 32 {
		return obs.TraceConfig{}, fmt.Errorf("bad -trace value %q: want \"all\" or a sample shift in 0..32", s)
	}
	if n == 0 {
		return obs.TraceConfig{Enabled: true, SampleAll: true}, nil
	}
	return obs.TraceConfig{Enabled: true, SampleShift: uint(n)}, nil
}

// offloadCfg, when Workers > 0, is applied to every subsequently constructed
// scheme domain: retired batches go to that many background reclaimer
// goroutines per domain instead of being scanned inline (reclaim's offload
// pipeline). Schemes without an on-demand scan (RC, leak) ignore it.
var offloadCfg reclaim.OffloadConfig

// SetOffload routes all subsequently constructed scheme domains through the
// background reclamation pipeline (zero value turns it back off). Drivers
// call this once at startup when -offload is requested; like SetObsHub it is
// not safe to flip while structures are being built concurrently.
func SetOffload(oc reclaim.OffloadConfig) { offloadCfg = oc }

// Offload returns the pipeline configuration installed by SetOffload.
func Offload() reclaim.OffloadConfig { return offloadCfg }

// obsCapable is satisfied by every scheme through the promoted
// reclaim.Base.EnableObs.
type obsCapable interface{ EnableObs(*obs.Domain) }

// scheme builds a Scheme whose factory attaches observability when a hub is
// installed. The display name (not Domain.Name) labels the obs domain so
// parameterized variants (HE-R1, HE-k10) stay distinguishable.
func scheme(name string, mk Factory) Scheme {
	return Scheme{name, func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		if c.Offload.Workers == 0 {
			c.Offload = offloadCfg
		}
		d := mk(a, c)
		if hub := obsHub; hub != nil {
			if oc, ok := d.(obsCapable); ok {
				od := obs.NewDomain(name, obs.Config{Sessions: c.Defaulted().MaxThreads, Trace: obsTrace})
				oc.EnableObs(od)
				hub.Attach(od)
			}
		}
		return d
	}}
}

// HE returns the Hazard Eras scheme (paper Algorithms 1-3).
func HE() Scheme {
	return scheme("HE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return core.New(a, c)
	})
}

// HEk returns Hazard Eras with the §3.4 k-advance option.
func HEk(k int) Scheme {
	return scheme("HE-k"+itoa(k), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return core.New(a, c, core.WithAdvanceEvery(k))
	})
}

// HEMinMax returns Hazard Eras with the §3.4 min/max-publication option.
func HEMinMax() Scheme {
	return scheme("HE-minmax", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return core.New(a, c, core.WithMinMax(true))
	})
}

// HP returns the Hazard Pointers baseline.
func HP() Scheme {
	return scheme("HP", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return hp.New(a, c)
	})
}

// HPr returns Hazard Pointers with a custom scan threshold (R factor).
func HPr(r int) Scheme {
	return scheme("HP-R"+itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return hp.New(a, c, hp.WithScanThreshold(r))
	})
}

// HEr returns Hazard Eras with amortized batch scanning: a thread scans its
// retired list only every r*MaxThreads*Slots retirements (this repo's
// generalization of HP's §3.1 R factor to eras; see reclaim.Config.ScanR).
func HEr(r int) Scheme {
	return scheme("HE-R"+itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		c.ScanR = r
		return core.New(a, c)
	})
}

// IBRr returns 2GE-IBR with the same amortized batch scanning as HEr.
func IBRr(r int) Scheme {
	return scheme("IBR-R"+itoa(r), func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		c.ScanR = r
		return ibr.New(a, c)
	})
}

// EBR returns the epoch-based baseline.
func EBR() Scheme {
	return scheme("EBR", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return ebr.New(a, c)
	})
}

// URCU returns the Grace-Version URCU baseline.
func URCU() Scheme {
	return scheme("URCU", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return urcu.New(a, c)
	})
}

// IBR returns 2GE interval-based reclamation (Wen et al. 2018), the
// follow-on scheme Hazard Eras inspired.
func IBR() Scheme {
	return scheme("IBR", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return ibr.New(a, c)
	})
}

// Hyaline returns robust Hyaline-1R (Nikolaev & Ravindran, arXiv:1905.07903):
// per-batch reference-counted handoff with the birth-era filter that bounds
// memory under stalled readers.
func Hyaline() Scheme {
	return scheme("hyaline-1r", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return hyaline.New(a, c)
	})
}

// HyalineNonRobust returns plain Hyaline: every batch goes to every active
// session, so a stalled reader pins all subsequent retirements (EBR's
// failure mode — the unbounded side of the stalled-reader A/B).
func HyalineNonRobust() Scheme {
	return scheme("hyaline", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return hyaline.New(a, c, hyaline.WithRobust(false))
	})
}

// WFE returns Wait-Free Eras (Nikolaev & Ravindran, arXiv:2001.01999): HE
// with a bounded Protect retry loop backed by an announce/help protocol.
func WFE() Scheme {
	return scheme("WFE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return wfe.New(a, c)
	})
}

// RC returns the reference-counting baseline.
func RC() Scheme {
	return scheme("RC", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return rc.New(a, c)
	})
}

// Leak returns the no-reclamation control.
func Leak() Scheme {
	return scheme("NONE", func(a reclaim.Allocator, c reclaim.Config) reclaim.Domain {
		return leak.New(a, c)
	})
}

// Figure4Schemes are the three schemes the paper's Figure 4 compares.
func Figure4Schemes() []Scheme { return []Scheme{HP(), HE(), URCU()} }

// AllSchemes is the full roster for the extended comparisons. Plain
// (non-robust) hyaline rides along: it is safe — it only loses the
// stalled-reader memory bound — and keeping it in the roster keeps the
// unbounded side of the robustness A/B under the same suites.
func AllSchemes() []Scheme {
	return []Scheme{HP(), HE(), HEMinMax(), IBR(), EBR(), URCU(), Hyaline(), HyalineNonRobust(), WFE(), RC(), Leak()}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
