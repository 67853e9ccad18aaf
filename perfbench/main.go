// Command perfbench is the repository's benchmark: it drives one
// workload on the functional AP1000+ machine for a fixed time and
// prints what a user sees end to end (setup time, op rate and latency,
// allocations, live heap) or, with --trace 1, what each layer costs
// (spans timed around the public calls into vpp, barrier, core, mc,
// pgas, dsm and tenancy, and the machine's own counters).
//
// Every input derives from --seed. Every run checks the program's
// outputs against a model the benchmark computes itself; a mismatch is
// a failed op, reported, never retried. The last line of standard
// output is the result object; the line before it records the
// environment and the counts that must repeat exactly for a seed.
//
// Run it from the repository root with perfbench/run.sh, e.g.
//
//	bash perfbench/run.sh --workload stencil --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Units of the end-to-end metrics, printed with --trace 0.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"op_p50_us":     "us",
	"op_p99_us":     "us",
	"allocs_per_op": "count",
	"live_heap_mb":  "MB",
}

// Units of the per-layer metrics, printed with --trace 1. A workload
// that bypasses a layer reports its metrics as 0: no call was made.
var perLayerUnits = map[string]string{
	"vpp.overlap_fix_us_p50":          "us",
	"vpp.overlap_fix_us_p99":          "us",
	"barrier.barrier_us_p50":          "us",
	"barrier.reduce_us_p50":           "us",
	"snet.hw_barriers_per_op":         "1/op",
	"core.put_issue_ns_p50":           "ns",
	"mc.flag_wait_us_p50":             "us",
	"mc.flag_increments_per_op":       "1/op",
	"machine.flag_wait_us_per_op":     "us/op",
	"machine.recv_dmas_per_op":        "1/op",
	"machine.interrupts_per_op":       "1/op",
	"msc.queue_high_water":            "count",
	"msc.spills_per_op":               "1/op",
	"msc.refill_interrupts_per_op":    "1/op",
	"tnet.msgs_per_op":                "1/op",
	"tnet.bytes_per_op":               "B/op",
	"tnet.mean_hops":                  "hops",
	"pgas.get_us_p50":                 "us",
	"pgas.get_us_p99":                 "us",
	"pgas.fetch_add_us_p50":           "us",
	"pgas.fetch_add_us_p99":           "us",
	"machine.atomics_executed_per_op": "1/op",
	"machine.atomic_replays":          "count",
	"dsm.load_us_p50":                 "us",
	"dsm.load_us_p99":                 "us",
	"dsm.store_us_p50":                "us",
	"dsm.hit_ratio":                   "ratio",
	"dsm.evictions_per_op":            "1/op",
	"dsm.invals_sent_per_store":       "1/store",
	"machine.retransmits_per_op":      "1/op",
	"machine.dedups_per_op":           "1/op",
	"machine.backoff_ms_per_op":       "ms/op",
	"fault.drops":                     "count",
	"fault.dups":                      "count",
	"fault.reorders":                  "count",
	"tenancy.submit_us_p50":           "us",
	"tenancy.queue_us_p50":            "us",
	"tenancy.queue_us_p99":            "us",
	"tenancy.run_us_p50":              "us",
	"tenancy.run_us_p99":              "us",
	"tenancy.partition_busy_share":    "ratio",
	"loadgen.lag_us_p99":              "us",
	"bench.trace_overhead_share":      "ratio",
}

// workload builds fresh instances of one benchmark program.
type workload interface {
	// setup builds the machine and everything the program needs before
	// it runs: allocation, inputs, runtime/PE/DSM/scheduler set-up.
	setup(seed uint64, observe bool) (instance, error)
	// kinds lists the spans a traced run of this workload records.
	kinds() []spanKind
}

// instance is one set-up machine, run at most once.
type instance interface {
	// run warms up, drives the load for d, checks the outputs and
	// reports. A non-nil tr records spans around the public calls.
	run(d time.Duration, tr *tracer) (phase, error)
	// close releases what setup started.
	close() error
}

// phase is what one run of an instance measured.
type phase struct {
	attempted, failed int64
	timedOps          int64
	elapsed           time.Duration
	lat               []*samples // op latencies of the timed phase, time-ordered
	allocs            uint64     // heap allocations during the timed phase
	liveHeapMB        float64
	// layers holds the per-layer metrics a traced run derives.
	layers map[string]float64
	// det holds counts that repeat exactly for a given seed.
	det map[string]int64
}

func (p phase) opsPerSec() float64 { return float64(p.timedOps) / p.elapsed.Seconds() }

var workloads = map[string]workload{
	"stencil":       stencilDefault(false),
	"stencil_lossy": stencilDefault(true),
	"shared_rw":     sharedRWDefault(),
	"tenants":       tenantsDefault(),
}

// cells is the machine size of every workload; span lane cells is the
// load generator's.
const cells = 64

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and the last instance is the one measured.
const setupRepeats = 15

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: stencil, shared_rw, tenants or stencil_lossy")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory the traced run's span file is written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return measure(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, stdout)
}

// measure runs one workload and prints the environment line and the
// result line.
func measure(w workload, name string, seed uint64, d time.Duration, traced bool, out string, stdout io.Writer) error {
	res := result{Metrics: map[string]metric{}}
	var det map[string]int64
	if !traced {
		// Set up setupRepeats times, each timed from a collected heap;
		// measure the last.
		var setups []float64
		for i := 1; i < setupRepeats; i++ {
			runtime.GC()
			start := time.Now()
			inst, err := w.setup(seed, false)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
			if err := inst.close(); err != nil {
				return err
			}
		}
		p, setup, err := setupAndRun(w, seed, false, d, nil)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		sort.Float64s(setups)
		det = p.det
		res.Attempted, res.Failed = p.attempted, p.failed
		put := func(k string, v float64) { res.Metrics[k] = metric{v, endToEndUnits[k]} }
		put("setup_s", setups[len(setups)/2])
		put("ops_per_s", p.opsPerSec())
		p50, p99 := opLatency(p.lat...)
		put("op_p50_us", p50/1e3)
		put("op_p99_us", p99/1e3)
		put("allocs_per_op", float64(p.allocs)/float64(p.timedOps))
		put("live_heap_mb", p.liveHeapMB)
	} else {
		// Half the time untraced, half traced with WithObserve on: the
		// ratio of their op rates is the tracing overhead.
		plain, _, err := setupAndRun(w, seed, false, d/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer(cells+1, w.kinds())
		p, _, err := setupAndRun(w, seed, true, d/2, tr)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(out, "spans-"+name+".csv")); err != nil {
			return err
		}
		det = p.det
		res.Attempted = plain.attempted + p.attempted
		res.Failed = plain.failed + p.failed
		for k, unit := range perLayerUnits {
			res.Metrics[k] = metric{p.layers[k], unit}
		}
		res.Metrics["bench.trace_overhead_share"] = metric{1 - p.opsPerSec()/plain.opsPerSec(), "ratio"}
	}
	res.Correct = res.Failed == 0

	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"go_version": runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		// The machine does not expose its shard count; every workload
		// keeps the documented default, min(GOMAXPROCS, cells).
		"delivery_workers": min(runtime.GOMAXPROCS(0), cells),
		"commit":           commit(),
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"env": env, "deterministic": det}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// setupAndRun sets up one instance, runs it for d and closes it; it
// also reports how long the set-up took.
func setupAndRun(w workload, seed uint64, observe bool, d time.Duration, tr *tracer) (phase, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.setup(seed, observe)
	if err != nil {
		return phase{}, 0, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(start)
	runtime.GC()
	p, err := inst.run(d, tr)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return p, setup, err
}

// commit reports the VCS revision the binary was built from, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
