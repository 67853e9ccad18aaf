package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that the outputs pass their correctness checks and that every
// metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("workload %q is not implemented", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			if err := measure(w, wl.Name, 3, 300*time.Millisecond, traced, t.TempDir(), &out); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", wl.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCheckCatchesWrongGrid corrupts one element of a finished stencil
// run and expects the serial check to count it as a failed op.
func TestCheckCatchesWrongGrid(t *testing.T) {
	w := stencilDefault(false)
	inst, err := w.setup(5, false)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*stencilInst)
	p, err := in.run(100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("clean run failed %d ops", p.failed)
	}
	iters := int(p.attempted)
	final := in.grid
	if iters%2 == 1 {
		final = in.next
	}
	_, sums := in.serial(iters)
	if got := in.check(iters, sums); got != 0 {
		t.Fatalf("check failed %d ops of an intact run", got)
	}
	final.Set(3, 7, final.LocalCol(3, 3*w.colsPerCell), 1e9)
	if got := in.check(iters, sums); got == 0 {
		t.Error("check passed a corrupted grid")
	}
}
