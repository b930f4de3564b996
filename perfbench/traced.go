package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mem"
	"repro/internal/reclaim"
	"repro/smr"
)

// counters is one snapshot of every layer's counters, taken at the traced
// window's start and end.
type counters struct {
	Type       string           `json:"type"`
	At         string           `json:"at"`
	Domain     smr.Stats        `json:"domain"`
	Arena      smr.ArenaStats   `json:"arena"`
	Classes    []mem.ClassStat  `json:"classes"`
	Instrument reclaim.Snapshot `json:"instrument"`
	refills    int64
}

func snapshot(in *instance, at string) counters {
	d := in.s.SMR()
	c := counters{Type: "counters", At: at, Domain: d.Stats(), Arena: d.Arena().Stats(), Classes: d.Arena().ClassStats(), Instrument: in.ins.Snapshot()}
	for _, cs := range c.Classes {
		c.refills += cs.Refills
	}
	return c
}

// perLayerUnits names every per-layer metric with its unit; the traced run
// reports exactly these.
var perLayerUnits = map[string]string{}

func init() {
	for _, n := range nsRows {
		perLayerUnits[n+"_ns"] = "ns"
		if n != "leak.protect" {
			perLayerUnits[n+"_xfloor"] = "ratio"
		}
	}
	for _, n := range selfRows {
		perLayerUnits[n[0]+"_self_ns"] = "ns"
	}
	for n, u := range map[string]string{
		"struct.hops_per_op":           "count",
		"core.publish_ratio":           "ratio",
		"mem.refills_per_kalloc":       "count",
		"mem.reuse_ratio":              "ratio",
		"reclaim.scans_per_retire":     "ratio",
		"core.era_advances_per_retire": "ratio",
		"reclaim.freed_per_scan":       "count",
		"reclaim.pending_peak_bytes":   "bytes",
		"reclaim.pending_p50_bytes":    "bytes",
		"struct.remove_hit_ratio":      "ratio",
		"trace.overhead_ratio":         "ratio",
	} {
		perLayerUnits[n] = u
	}
}

// nsRows are the ladder's per-call rows, reported in ns and normalised to
// the leak.protect floor.
var nsRows = []string{
	"mem.get", "core.protect", "reclaim.protect", "smr.load", "struct.hop",
	"core.protect_publish", "smr.op_window",
	"mem.alloc_free", "mem.bytes_alloc_free", "core.retire", "reclaim.retire", "smr.retire",
	"leak.protect", "hp.protect", "ebr.protect", "hp.retire", "ebr.retire",
}

// selfRows gives each layer's self cost as its row minus the rows of the
// layers it calls.
var selfRows = [][]string{
	{"core.protect", "leak.protect"},
	{"reclaim.protect", "core.protect"},
	{"smr.load", "reclaim.protect"},
	{"struct.hop", "smr.load", "mem.get"},
	{"core.retire", "mem.alloc_free"},
	{"reclaim.retire", "core.retire"},
	{"smr.retire", "reclaim.retire"},
}

// traced is the --trace 1 run. Instance A runs the default configuration
// untraced for half of dur; instance B, the same workload with the
// structure's Instrument counters on, runs the other half recording a root
// span per operation. B's counters and A's call ladder give the per-layer
// metrics; both instances are gated; the spans go to spanPath.
func traced(w *workload, seed uint64, dur time.Duration, spanPath string) (*report, error) {
	rep := &report{Samples: map[string]int64{}}
	tr := newTracer()
	tr.record(map[string]any{"type": "host", "host": thisHost(), "workload": w.name, "seed": seed})

	a, _, err := setup(w, options{}, seed, 0)
	if err != nil {
		return nil, err
	}
	resA := a.window(dur/2, nil)
	tr.span("window.untraced", 0, resA.start, resA.end, resA.ops)
	a.closeWorkers()

	b, _, err := setup(w, options{instrument: true}, seed, 1)
	if err != nil {
		return nil, err
	}
	before := snapshot(b, "window_start")
	resB := b.window(dur/2, tr.rings)
	after := snapshot(b, "window_end")
	tr.span("window.traced", 0, resB.start, resB.end, resB.ops)
	tr.record(before)
	tr.record(after)
	b.closeWorkers()

	tr.hops[kindRead], tr.hops[kindUpdate] = hopTables(b)
	ns, err := ladder(a, tr.hops[kindRead], tr)
	if err != nil {
		return nil, err
	}
	ns["core.protect_publish"] = ns["core.publish_window"] - ns["core.op_window"]

	var attempted, failed int64
	for _, in := range []*instance{a, b} {
		rep.Gate = append(rep.Gate, in.gate()...)
		x, f, _, _ := in.totals()
		attempted, failed = attempted+x, failed+f
		rep.noteFailure(in)
	}

	m := map[string]metric{}
	floor := ns["leak.protect"]
	for _, n := range nsRows {
		m[n+"_ns"] = metric{ns[n], "ns"}
		if n != "leak.protect" {
			m[n+"_xfloor"] = metric{ratio(ns[n], floor), "ratio"}
		}
	}
	for _, row := range selfRows {
		v := ns[row[0]]
		for _, below := range row[1:] {
			v -= ns[below]
		}
		m[row[0]+"_self_ns"] = metric{v, "ns"}
	}
	dStats, aStats := after.Domain, after.Arena
	retired := float64(dStats.Retired - before.Domain.Retired)
	scans := float64(dStats.Scans - before.Domain.Scans)
	allocs := float64(aStats.Allocs - before.Arena.Allocs)
	visits := float64(after.Instrument.Visits - before.Instrument.Visits)
	counts := map[string]float64{
		"struct.hops_per_op":           ratio(visits, float64(resB.ops)),
		"core.publish_ratio":           ratio(float64(after.Instrument.Stores-before.Instrument.Stores), visits),
		"mem.refills_per_kalloc":       ratio(float64(after.refills-before.refills), allocs/1000),
		"mem.reuse_ratio":              ratio(float64(aStats.Reuses-before.Arena.Reuses), allocs),
		"reclaim.scans_per_retire":     ratio(scans, retired),
		"core.era_advances_per_retire": ratio(float64(dStats.EraClock-before.Domain.EraClock), retired),
		"reclaim.freed_per_scan":       ratio(float64(dStats.Freed-before.Domain.Freed), scans),
		"reclaim.pending_peak_bytes":   quantile(resB.pendBytes, 1),
		"reclaim.pending_p50_bytes":    quantile(resB.pendBytes, 0.5),
		"struct.remove_hit_ratio":      ratio(float64(resB.hits), float64(resB.removes)),
		"trace.overhead_ratio":         ratio(median(resB.subRates()), median(resA.subRates())),
	}
	for n, v := range counts {
		m[n] = metric{v, perLayerUnits[n]}
	}
	if len(m) != len(perLayerUnits) {
		return nil, fmt.Errorf("internal: %d per-layer metrics, %d declared", len(m), len(perLayerUnits))
	}

	rep.Result = result{Correct: failed == 0 && len(rep.Gate) == 0, Attempted: attempted, Failed: failed, Metrics: m}
	rep.ErrorRatio = float64(failed) / float64(attempted)
	rec, kept := tr.counts()
	rep.Samples["op_untraced"], rep.Samples["op_traced"] = resA.ops, resB.ops
	rep.Samples["spans_recorded"], rep.Samples["spans_kept"] = rec, kept
	rep.Samples["ladder_batches"] = ladderRounds
	rep.Extra = map[string]float64{"ops_per_s_untraced": median(resA.subRates()), "ops_per_s_traced": median(resB.subRates())}
	tr.record(map[string]any{"type": "summary", "result": rep.Result, "samples": rep.Samples, "gate_failures": rep.Gate})
	if err := tr.write(spanPath); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	return rep, nil
}

// hopTables replays, on the instrumented instance at quiescence, Contains
// and one update (Remove, then re-Insert) of every key, and returns the
// protected hops each took. They give the ladder's hops per lookup and the
// hop count of each recorded operation span (the replay's count: retries a
// live operation made under contention are not in it).
func hopTables(in *instance) (contains, update []int64) {
	g := in.s.Register()
	defer g.Unregister()
	contains = make([]int64, in.w.size)
	update = make([]int64, in.w.size)
	for k := uint64(0); k < in.w.size; k++ {
		v0 := in.ins.Snapshot().Visits
		in.s.Contains(g, k)
		v1 := in.ins.Snapshot().Visits
		if in.s.Remove(g, k) {
			in.s.Insert(g, k, k)
		}
		contains[k], update[k] = v1-v0, in.ins.Snapshot().Visits-v1
	}
	return contains, update
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
