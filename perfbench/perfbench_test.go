package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func needCores(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < workers {
		t.Skipf("needs GOMAXPROCS >= %d", workers)
	}
}

// killCheckWorkers oversubscribes the procs in the kill-check: a reader
// preempted between loading a reference and dereferencing it is what lets
// a free land in between. With the closed loop's two workers that window is
// a few nanoseconds against a free path of hundreds, and a bounded run
// catches nothing.
const killCheckWorkers = 8

// TestKillCheckSkipPublish arms HE's skip-publish defect on a checked,
// poisoned structure: readers then hold nothing a scan can see, so nodes
// are freed under them. The correctness gate must turn that into failed
// operations or counted arena faults and print the seed, and the unmutated
// run on the same structure and seed must report exactly zero of either.
func TestKillCheckSkipPublish(t *testing.T) {
	needCores(t)
	const seed = 20170724
	for _, name := range []string{"list-stall", "map-churn"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := endToEnd(w, options{checked: true, mutation: core.MutSkipPublish, oversubscribe: killCheckWorkers}, seed, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			mutated.Workload, mutated.Seed = name, seed
			var summary bytes.Buffer
			printSummary(&summary, mutated)
			t.Log(summary.String())
			faults := false
			for _, g := range mutated.Gate {
				faults = faults || strings.HasPrefix(g, "arena faults")
			}
			if mutated.Result.Failed == 0 && !faults {
				t.Fatalf("seed %d: skip-publish went undetected: 0 failed ops of %d, gate %q",
					seed, mutated.Result.Attempted, mutated.Gate)
			}
			if mutated.Result.Correct || !strings.Contains(summary.String(), "(seed 20170724)") {
				t.Fatalf("seed %d: skip-publish run reported correct, or its summary does not name the seed", seed)
			}

			clean, err := endToEnd(w, options{checked: true, oversubscribe: killCheckWorkers}, seed, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Result.Failed != 0 || len(clean.Gate) != 0 || !clean.Result.Correct {
				t.Fatalf("seed %d: unmutated run: %d failed of %d, first %q, gate %q",
					seed, clean.Result.Failed, clean.Result.Attempted, clean.FirstFail, clean.Gate)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload in both modes briefly
// and checks that each reports exactly the metrics BENCHMARK.json
// declares, with the declared units, that an untraced run is correct with
// no failed operations, and that the traced run writes its span file.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	needCores(t)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, wd := range spec.Workloads {
		for trace, want := range [][]decl{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wd.Name, "--seed", "5", "--seconds", "0.5",
				"--trace", []string{"0", "1"}[trace], "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", wd.Name, trace, code, stderr.String())
			}
			res := lastResult(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: correct=%v failed=%d attempted=%d\n%s",
					wd.Name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", wd.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %s", wd.Name, trace, d.Name, m, ok, d.Unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wd.Name, d.Name, m.Value)
				}
			}
		}
		if fi, err := os.Stat(filepath.Join(out, "spans-"+wd.Name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", wd.Name, err)
		}
	}
}

// TestRefusesOversubscription pins the host guard: fewer procs than
// workers is an error exit, not a silently oversubscribed measurement.
func TestRefusesOversubscription(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "list-read", "--out", t.TempDir()}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q: want a refusal with no result", code, stdout.String())
	}
}

func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout)
	}
	return res
}

// TestAddScaled pins the normalisation's histogram rescaling: every sample
// moves to the bucket of its scaled value, so the quantiles scale with it
// to within the buckets' 0.4% resolution, and no sample is lost.
func TestAddScaled(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v += 7 {
		h.record(v)
	}
	for _, f := range []float64{0.5, 1, 1.7} {
		dst := newHist()
		h.addScaled(dst, f)
		if dst.n != h.n {
			t.Fatalf("f=%g: %d samples after scaling, want %d", f, dst.n, h.n)
		}
		for _, q := range []float64{0.1, 0.5, 0.99} {
			got, want := dst.quantile(q), h.quantile(q)*f
			if d := got/want - 1; d < -0.01 || d > 0.01 {
				t.Errorf("f=%g q=%g: %.1f, want %.1f", f, q, got, want)
			}
		}
	}
}
