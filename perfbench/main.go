// Command perfbench is the repository benchmark: Hazard Eras (internal/core)
// in its default configuration, reached through the public smr API and the
// list and hashmap structures, under a closed loop of two workers.
//
//	perfbench --workload list-read --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes the separate traced run that yields the per-layer
// metrics, the call ladder and a span file. Either way it checks the
// structure and the reclamation accounting at quiescence, and prints a
// summary on standard error and one JSON result as the last line of
// standard output. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// instances is how many times a --trace 0 run builds, warms and measures
// an instance, each for an equal share of the window; setup_s is the median
// of their set-up times.
const instances = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workers    int    `json:"workers"`
}

func thisHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers}
}

// report is the full record of one run, appended to the results log.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Host       host               `json:"host"`
	Result     result             `json:"result"`
	ErrorRatio float64            `json:"error_ratio"`
	Samples    map[string]int64   `json:"samples"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Gate       []string           `json:"gate_failures,omitempty"`
	FirstFail  string             `json:"first_failed_op,omitempty"`
	// Sub-window figures of every measured instance, in order: the raw
	// samples the end-to-end medians are taken over.
	SubOpsPerSec []float64 `json:"sub_ops_per_s,omitempty"`
	SubP50us     []float64 `json:"sub_p50_us,omitempty"`
	SubP99us     []float64 `json:"sub_p99_us,omitempty"`
	// The reference kernel's ns per hop in each of those sub-windows.
	SubRefNsPerHop []float64 `json:"sub_ref_ns_per_hop,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload: list-read, map-churn or list-stall")
	seed := fs.Uint64("seed", 1, "seed of the key streams")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the results log and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*wlName)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *wlName, *trace, *seconds)
		return 2
	}
	if p := runtime.GOMAXPROCS(0); p < workers {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d is below the %d workers; refusing to oversubscribe\n", p, workers)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(w, options{}, *seed, dur)
	} else {
		rep, err = traced(w, *seed, dur, filepath.Join(*out, "spans-"+w.name+".jsonl"))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	for name, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s seed %d: metric %s is %v\n", w.name, *seed, name, m.Value)
			return 1
		}
	}
	rep.Workload, rep.Seed, rep.Trace, rep.Seconds, rep.Host = w.name, *seed, *trace, *seconds, thisHost()
	printSummary(stderr, rep)
	if err := appendJSON(filepath.Join(*out, "results.jsonl"), rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: results log: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEnd is the --trace 0 run: instances times, set up an instance,
// measure it for its share of dur with tracing off, and gate it. The
// timing figures are pooled over the whole run: throughput is every
// completed operation over the summed time the workers spent on the
// workload, and the latency percentiles are those of every operation
// measured. Each comes raw and normalised (the _norm metrics): every
// sub-window's time and latencies are scaled by refNominalNs over the
// reference kernel's ns per hop in that sub-window, which takes out the
// host's own changes of speed (refspeed.go). Every sub-window figure goes
// to the results log.
func endToEnd(w *workload, o options, seed uint64, dur time.Duration) (*report, error) {
	rep := &report{Samples: map[string]int64{}, Extra: map[string]float64{}}
	var setupSecs, live []float64
	var kinds [numKinds]*hist
	for k := range kinds {
		kinds[k] = newHist()
	}
	all, norm := newHist(), newHist()
	var busySecs, normSecs, refNs float64
	var attempted, failed int64
	for i := 0; i < instances; i++ {
		in, took, err := setup(w, o, seed, i)
		if err != nil {
			return nil, err
		}
		res := in.window(dur/instances, nil)
		rep.Gate = append(rep.Gate, in.gate()...)
		a, f, _, _ := in.totals()
		attempted, failed = attempted+a, failed+f
		rep.noteFailure(in)

		setupSecs = append(setupSecs, took.Seconds())
		live = append(live, res.liveBytes...)
		rates := res.subRates()
		rep.SubOpsPerSec = append(rep.SubOpsPerSec, rates...)
		for j := 0; j < res.n; j++ {
			if res.subOps[j] > 0 {
				rep.SubP50us = append(rep.SubP50us, res.subQuantile(j, 0.50)/1e3)
				rep.SubP99us = append(rep.SubP99us, res.subQuantile(j, 0.99)/1e3)
			}
			// Worker time on the workload: the sub-window less the
			// workers' average time away on the reference kernel.
			busy := res.subSecs[j] - res.refAwaySecs[j]/float64(len(in.workers))
			speed := refNominalNs / res.refNsPerHop[j]
			busySecs += busy
			normSecs += busy * speed
			refNs += res.refNsPerHop[j] * busy
			for k := range kinds {
				kinds[k].merge(res.lat[j][k])
				res.lat[j][k].addScaled(norm, speed)
			}
		}
		rep.SubRefNsPerHop = append(rep.SubRefNsPerHop, res.refNsPerHop...)
		rep.Samples["op"] += res.ops
		rep.Extra[fmt.Sprintf("instance%d_ops_per_s", i)] = float64(res.ops) / (float64(res.end-res.start) / 1e9)
	}
	for _, h := range kinds {
		all.merge(h)
	}
	ops := float64(rep.Samples["op"])
	rep.Extra["ops_per_s"] = ops / busySecs
	rep.Extra["op_p50_us"] = all.quantile(0.50) / 1e3
	rep.Extra["op_p99_us"] = all.quantile(0.99) / 1e3
	rep.Extra["ref_ns_per_hop"] = refNs / busySecs
	m := map[string]metric{
		"ops_per_s_norm": {ops / normSecs, "1/s"},
		"op_p50_us_norm": {norm.quantile(0.50) / 1e3, "us"},
		"op_p99_us_norm": {norm.quantile(0.99) / 1e3, "us"},
		"live_bytes_p99": {quantile(live, 0.99), "bytes"},
		"setup_s":        {median(setupSecs), "s"},
	}
	rep.Result = result{Correct: failed == 0 && len(rep.Gate) == 0, Attempted: attempted, Failed: failed, Metrics: m}
	rep.ErrorRatio = float64(failed) / float64(attempted)
	rep.Samples["live_bytes"] = int64(len(live))
	rep.Samples["instances"] = instances
	rep.Samples["sub_windows"] = int64(len(rep.SubOpsPerSec))
	// Per-kind latency over every measured operation, for the summary; the
	// kinds a workload does not run are left out.
	for k, h := range kinds {
		if h.n > 0 {
			rep.Extra[kindNames[k]+"_p50_us"] = h.quantile(0.50) / 1e3
			rep.Extra[kindNames[k]+"_p99_us"] = h.quantile(0.99) / 1e3
			rep.Samples[kindNames[k]] = h.n
		}
	}
	return rep, nil
}

func (rep *report) noteFailure(in *instance) {
	if rep.FirstFail == "" {
		rep.FirstFail = in.firstFailure()
	}
}

// subRates returns each sub-window's completed operations per second.
func (r *windowResult) subRates() []float64 {
	var rates []float64
	for i, n := range r.subOps {
		rates = append(rates, float64(n)/r.subSecs[i])
	}
	return rates
}

// subQuantile returns sub-window i's q-quantile operation latency over all
// kinds, in ns.
func (r *windowResult) subQuantile(i int, q float64) float64 {
	h := newHist()
	for k := range r.lat[i] {
		h.merge(r.lat[i][k])
	}
	return h.quantile(q)
}

func printSummary(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d seconds=%g nproc=%d GOMAXPROCS=%d %s workers=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Seconds, h.NumCPU, h.GOMAXPROCS, h.Go, h.Workers)
	for _, name := range sortedKeys(rep.Result.Metrics) {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rep.Extra) {
		fmt.Fprintf(w, "  %-34s %14.6g\n", name, rep.Extra[name])
	}
	fmt.Fprintf(w, "  %-34s %14.6g (%d failed of %d attempted)\n", "error_ratio", rep.ErrorRatio, rep.Result.Failed, rep.Result.Attempted)
	for _, name := range sortedKeys(rep.Samples) {
		fmt.Fprintf(w, "  samples.%-26s %14d\n", name, rep.Samples[name])
	}
	if rep.FirstFail != "" {
		fmt.Fprintf(w, "  FAILED OP (seed %d): %s\n", rep.Seed, rep.FirstFail)
	}
	for _, g := range rep.Gate {
		fmt.Fprintf(w, "  GATE FAILED (seed %d): %s\n", rep.Seed, g)
	}
}

func appendJSON(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio is a/b, or 0 when b is 0 (a counter that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
