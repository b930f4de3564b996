package bench

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file holds what the command-line drivers share: the -scheme/-struct
// selection picker (hestress, hecheck) and the observability wiring behind
// -metrics, -sample, -sample-every, -trace and -monitor (hebench,
// hestress).

// Pick resolves a comma-separated -scheme or -struct selection against a
// roster. "" and "all" select the whole roster; otherwise every name must
// name a roster entry, and the selection keeps roster order.
func Pick[T any](csv string, roster []T, name func(T) string) ([]T, error) {
	if csv == "" || csv == "all" {
		return roster, nil
	}
	known := make(map[string]bool, len(roster))
	names := make([]string, 0, len(roster))
	for _, e := range roster {
		known[name(e)] = true
		names = append(names, name(e))
	}
	want := map[string]bool{}
	for _, n := range strings.Split(csv, ",") {
		n = strings.TrimSpace(n)
		if !known[n] {
			return nil, fmt.Errorf("unknown name %q (want %s or all)", n, strings.Join(names, ", "))
		}
		want[n] = true
	}
	var out []T
	for _, e := range roster {
		if want[name(e)] {
			out = append(out, e)
		}
	}
	return out, nil
}

// PickSchemes resolves a -scheme selection against AllSchemes.
func PickSchemes(csv string) ([]Scheme, error) {
	return Pick(csv, AllSchemes(), func(s Scheme) string { return s.Name })
}

// ObsFlags are the drivers' observability flags; RegisterObsFlags defines
// them and Start wires what they ask for.
type ObsFlags struct {
	metrics, sample, trace *string
	every                  *time.Duration
	monitor                *bool
}

// RegisterObsFlags defines -metrics, -sample, -sample-every, -trace and
// -monitor on fs.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		metrics: fs.String("metrics", "", "serve live metrics on this address (/metrics Prometheus text, /metrics.json, /events.json flight recorder, /debug/vars, /debug/pprof); e.g. :9090 or 127.0.0.1:0"),
		sample:  fs.String("sample", "", "append per-domain observability snapshots to this file as JSON lines"),
		every:   fs.Duration("sample-every", 100*time.Millisecond, "sampling interval for -sample"),
		trace:   fs.String("trace", "", "sampled per-ref lifecycle tracing: \"all\" = every allocation, N = 1 in 2^N (adds reclamation-age and pinned-ref telemetry to /metrics.json and span lines to -sample)"),
		monitor: fs.Bool("monitor", false, "run the online health monitor: invariant alerts at /alerts.json and smr_alerts_*, alert lines to -sample"),
	}
}

// Serving reports whether -metrics asked for a live endpoint.
func (f *ObsFlags) Serving() bool { return *f.metrics != "" }

// Start installs the tracing configuration and the hub (SetObsTrace,
// SetObsHub) for every scheme domain built afterwards, then starts what
// the flags ask for: the metrics server (its address is printed as
// "metrics: http://ADDR/metrics"), the file sampler and the health monitor,
// whose alerts also go to the sample file. It returns nil when every flag
// is off. The caller defers hub.Close, which stops the monitor, flushes
// and stops the sampler, and joins the server, in that order, so shutdown
// alerts still reach the sample file.
func (f *ObsFlags) Start() (*obs.Hub, error) {
	tc, err := parseTrace(*f.trace)
	if err != nil {
		return nil, err
	}
	SetObsTrace(tc)
	if *f.metrics == "" && *f.sample == "" && *f.trace == "" && !*f.monitor {
		return nil, nil
	}
	hub := obs.NewHub()
	SetObsHub(hub)
	if *f.metrics != "" {
		addr, _, err := hub.Serve(*f.metrics)
		if err != nil {
			hub.Close()
			return nil, fmt.Errorf("metrics: %v", err)
		}
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	var smp *obs.Sampler
	if *f.sample != "" {
		smp, err = obs.StartFileSampler(*f.sample, *f.every, hub.Domains)
		if err != nil {
			hub.Close()
			return nil, fmt.Errorf("sample: %v", err)
		}
		hub.SetSampler(smp)
	}
	if *f.monitor {
		mon := obs.NewMonitor(obs.MonitorConfig{}, hub.Domains)
		mon.SetOnAlert(func(a obs.Alert) {
			if smp != nil {
				smp.WriteAlert(a)
			}
		})
		hub.SetMonitor(mon)
		mon.Start()
	}
	return hub, nil
}

// parseTrace parses the drivers' -trace flag: "" is off, "all" traces every
// allocation, and a number N samples one allocation in 2^N.
func parseTrace(s string) (obs.TraceConfig, error) {
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
