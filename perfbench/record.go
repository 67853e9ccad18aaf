package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// samples is a fixed-capacity latency buffer owned by one goroutine.
// When it fills it drops every other sample and from then on keeps
// every other op, so memory stays constant however long the run and
// the kept samples stay evenly spread over all of it.
type samples struct {
	ns     []int64
	n      int // samples kept
	stride int // keep one op in stride
	skip   int // ops since the last kept one
}

func newSamples(capacity int) samples { return samples{ns: make([]int64, capacity), stride: 1} }

func (s *samples) add(d time.Duration) {
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if s.n == len(s.ns) {
		for i := 0; i < s.n/2; i++ {
			s.ns[i] = s.ns[2*i+1]
		}
		s.n /= 2
		s.stride *= 2
	}
	s.ns[s.n] = int64(d)
	s.n++
}

func (s *samples) kept() []int64 { return s.ns[:s.n] }

// sortedOf merges sample buffers into one ascending slice.
func sortedOf(bufs ...*samples) []int64 {
	var all []int64
	for _, b := range bufs {
		all = append(all, b.kept()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// windowSamples is the size of the windows op_p99_us is taken over:
// large enough that each window's p99 has 20 samples beyond it.
const windowSamples = 2000

// opLatency reports the median of all samples and the median, over
// consecutive windows of about windowSamples samples, of each window's
// p99. The buffers are time-ordered and cover the same span (one per
// recording goroutine); window k takes the k-th slice of every buffer.
// A host stall of a few milliseconds, which on a small shared VM
// strikes a run a few times at random, then moves one window's p99
// instead of the run's.
func opLatency(bufs ...*samples) (p50, p99 float64) {
	total := 0
	for _, b := range bufs {
		total += b.n
	}
	k := max(1, total/windowSamples)
	var p99s []float64
	for w := 0; w < k; w++ {
		var win []int64
		for _, b := range bufs {
			win = append(win, b.ns[w*b.n/k:(w+1)*b.n/k]...)
		}
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		p99s = append(p99s, quantile(win, 0.99))
	}
	sort.Float64s(p99s)
	return quantile(sortedOf(bufs...), 0.50), p99s[len(p99s)/2]
}

// quantile reads the nearest-rank q-quantile of an ascending slice, in
// nanoseconds; 0 when there are no samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// spanKind names one public call the benchmark times in a traced run.
type spanKind int

const (
	spanOverlapFix spanKind = iota // vpp.Runtime.OverlapFix2D
	spanBarrier                    // vpp.Runtime.Barrier (S-net barrier)
	spanReduce                     // vpp.Runtime.GlobalSum
	spanPut                        // core.Comm.Put
	spanFlagWait                   // mc.Flags.Wait
	spanGet                        // pgas.PE.GetInt64
	spanFetchAdd                   // pgas.PE.FetchAdd
	spanLoad                       // dsm.DSM.LoadF64
	spanStore                      // dsm.DSM.StoreF64
	spanSubmit                     // tenancy.Scheduler.Submit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"vpp.overlap_fix", "barrier.barrier", "barrier.reduce", "core.put",
	"mc.flag_wait", "pgas.get", "pgas.fetch_add", "dsm.load", "dsm.store",
	"tenancy.submit",
}

// span is one timed call: its start (ns since the tracer's epoch), its
// duration, and the op (iteration, pass or job) it belongs to, which
// ties together the spans of one op across cells.
type span struct {
	start, dur, op int64
}

// spanCap bounds the spans kept per lane and kind: a traced run's
// per-layer figures come from the first spanCap calls of each kind on
// each lane.
const spanCap = 2048

// tracer records spans into memory preallocated per lane (one lane per
// cell plus one for the load generator), so recording neither locks
// nor allocates. A nil *tracer records nothing: untraced runs pay one
// nil check per call site.
type tracer struct {
	epoch time.Time
	lanes [][numSpanKinds][]span
}

// newTracer preallocates span memory for the given kinds on every
// lane; spans of other kinds are dropped.
func newTracer(lanes int, kinds []spanKind) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([][numSpanKinds][]span, lanes)}
	for i := range t.lanes {
		for _, k := range kinds {
			t.lanes[i][k] = make([]span, 0, spanCap)
		}
	}
	return t
}

// begin returns a span's start time, or the zero time when untraced.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span begun at start on lane for op.
func (t *tracer) end(lane int, k spanKind, op int64, start time.Time) {
	if t == nil {
		return
	}
	b := &t.lanes[lane][k]
	if len(*b) == cap(*b) {
		return
	}
	*b = append(*b, span{
		start: start.Sub(t.epoch).Nanoseconds(),
		dur:   time.Since(start).Nanoseconds(),
		op:    op,
	})
}

// durations returns every kept duration of kind k, ascending.
func (t *tracer) durations(k spanKind) []int64 {
	var all []int64
	for i := range t.lanes {
		for _, s := range t.lanes[i][k] {
			all = append(all, s.dur)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// write stores every kept span as CSV (layer, lane, op, start_ns,
// dur_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,lane,op,start_ns,dur_ns")
	for lane := range t.lanes {
		for k := range t.lanes[lane] {
			for _, s := range t.lanes[lane][k] {
				fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[k], lane, s.op, s.start, s.dur)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs reads the process's cumulative heap allocation count
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB collects garbage and reports the live heap in megabytes.
// Callers keep the machine reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// splitmix64 is the benchmark's input generator: every input derives
// from --seed through it.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// mix derives an independent stream seed from a seed and labels.
func mix(seed uint64, labels ...uint64) uint64 {
	s := splitmix64(seed)
	v := s.next()
	for _, l := range labels {
		s = splitmix64(v ^ (l * 0x9e3779b97f4a7c15))
		v = s.next()
	}
	return v
}
