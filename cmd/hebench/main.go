// Command hebench regenerates the evaluation of the Hazard Eras paper: the
// Figure-4 throughput panels, Table 1 (classification, measured per-node
// synchronization, measured memory bounds), the Equation-1 bound check, the
// Appendix-A stalled-reader contrast, and the §3.4 ablations.
//
// Usage:
//
//	hebench -exp fig4 -dur 1s -threads 1,2,4,8
//	hebench -exp table1
//	hebench -exp all -dur 500ms -csv
//	hebench -exp fig4 -grow        # undersized registries: exercise slot-block growth
//
// Experiments: fig4, table1, bound, kadvance, minmax, stalled, schemes,
// api, all. The api experiment is the public-vs-internal overhead A/B over
// the smr package; -api selects its sides (public|internal|both). The
// schemes experiment is the roster throughput comparison behind
// BENCH_schemes.json (hyaline-1r, hyaline and WFE alongside the rest).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/reclaim"
)

func main() {
	var (
		exp     = flag.String("exp", "fig4", "experiment: fig4|table1|bound|kadvance|minmax|stalled|oversub|rfactor|schemes|api|all")
		api     = flag.String("api", "both", "sides of the -exp api comparison: public|internal|both")
		dur     = flag.Duration("dur", 200*time.Millisecond, "measured duration per benchmark cell")
		threads = flag.String("threads", "1,2,4,8", "comma-separated worker counts")
		sizes   = flag.String("sizes", "100,1000,10000", "comma-separated list sizes (fig4)")
		updates = flag.String("updates", "0,10,100", "comma-separated update percentages (fig4)")
		seed    = flag.Uint64("seed", 42, "PRNG seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		grow    = flag.Bool("grow", false, "undersize every registry (initial capacity 2) so workers register through dynamically grown slot blocks")
		metrics = flag.String("metrics", "", "serve live metrics on this address (/metrics Prometheus text, /metrics.json, /events.json flight recorder, /debug/vars, /debug/pprof); e.g. :9090 or 127.0.0.1:0")
		sample  = flag.String("sample", "", "append per-domain observability snapshots to this file as JSON lines")
		every   = flag.Duration("sample-every", 100*time.Millisecond, "sampling interval for -sample")
		hold    = flag.Duration("hold", 0, "keep the -metrics endpoint alive this long after the experiments finish (so scrapers catch the final state)")
		offload = flag.Int("offload", 0, "background reclaimer goroutines per domain (0 = inline reclamation)")
		offWm   = flag.Int64("offload-watermark", 0, "offload backpressure watermark in pending bytes (0 = 8x the inline scan-threshold footprint)")
		valsize = flag.String("valsize", "0", "per-key []byte payload size: 0 = word values (off), N = fixed N bytes, zipf:N = skewed sizes in [8,N]")
		trace   = flag.String("trace", "", "sampled per-ref lifecycle tracing: \"all\" = every allocation, N = 1 in 2^N (adds reclamation-age and pinned-ref telemetry to /metrics.json and span lines to -sample)")
		monitor = flag.Bool("monitor", false, "run the online health monitor: invariant alerts at /alerts.json and smr_alerts_*, alert lines to -sample")
	)
	flag.Parse()

	if *offload > 0 {
		bench.SetOffload(reclaim.OffloadConfig{Workers: *offload, WatermarkBytes: *offWm})
	}

	sizer, err := bench.ParseValSizer(*valsize)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bench.SetValSizer(sizer)

	if *trace != "" {
		tc, err := bench.ParseTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bench.SetObsTrace(tc)
	}

	if *metrics != "" || *sample != "" || *trace != "" || *monitor {
		hub := obs.NewHub()
		bench.SetObsHub(hub)
		// Close stops the monitor, flushes and stops the sampler, and joins
		// the metrics server — in that order, so shutdown alerts still reach
		// the sample file. Runs after the final sample and the -hold window.
		defer hub.Close()
		if *metrics != "" {
			addr, _, err := hub.Serve(*metrics)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("metrics: http://%s/metrics\n", addr)
			defer time.Sleep(*hold)
		}
		var smp *obs.Sampler
		if *sample != "" {
			var err error
			smp, err = obs.StartFileSampler(*sample, *every, hub.Domains)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sample: %v\n", err)
				os.Exit(1)
			}
			hub.SetSampler(smp)
		}
		if *monitor {
			mon := obs.NewMonitor(obs.MonitorConfig{}, hub.Domains)
			mon.SetOnAlert(func(a obs.Alert) {
				if smp != nil {
					smp.WriteAlert(a)
				}
			})
			hub.SetMonitor(mon)
			mon.Start()
		}
	}

	o := bench.Options{
		Dur:     *dur,
		Threads: parseInts(*threads),
		Updates: parseInts(*updates),
		Sizes:   parseUints(*sizes),
		Seed:    *seed,
		CSV:     *csv,
		Grow:    *grow,
	}

	fmt.Printf("hazard-eras benchmark harness — GOMAXPROCS=%d, NumCPU=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	if sizer != nil {
		fmt.Printf("byte-value mode: every key carries a -valsize=%s payload through the size-class arena\n", *valsize)
	}
	if runtime.NumCPU() < 4 {
		fmt.Println("note: few cores available; thread counts above NumCPU measure the")
		fmt.Println("oversubscribed regime (also part of the paper's evaluation).")
	}

	run := func(name string) {
		switch name {
		case "fig4":
			bench.Figure4(os.Stdout, o)
		case "table1":
			bench.Table1(os.Stdout, o)
		case "bound":
			bench.EquationOneBound(os.Stdout, o)
		case "kadvance":
			bench.KAdvance(os.Stdout, o)
		case "minmax":
			bench.MinMax(os.Stdout, o)
		case "stalled":
			bench.Stalled(os.Stdout, o)
		case "oversub":
			bench.Oversubscription(os.Stdout, o)
		case "rfactor":
			bench.RFactor(os.Stdout, o)
		case "schemes":
			bench.SchemesCompare(os.Stdout, o)
		case "api":
			bench.APICompare(os.Stdout, o, *api)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig4", "bound", "kadvance", "rfactor", "minmax", "oversub", "stalled", "schemes", "api"} {
			run(name)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(name))
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "bad integer list entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func parseUints(s string) []uint64 {
	var out []uint64
	for _, n := range parseInts(s) {
		out = append(out, uint64(n))
	}
	return out
}
