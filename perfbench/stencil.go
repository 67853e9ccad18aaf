package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ap1000plus"
)

// stencil is the VPP Jacobi solve of examples/stencil, scaled up: a
// closed-loop BSP run on 64 cells whose iterations are OverlapFix2D
// (stride PUTs with flags), local relaxation and a barrier, with a
// GlobalSum every sumEvery-th iteration. It is the paper's compiler
// pattern: bulk stride PUTs through vpp, core, msc, tnet, machine and
// barrier, bypassing pgas, dsm, tenancy and reliable delivery. With
// lossy set the same program runs over a seeded fault plan, the only
// workload on the synchronous transport and the MSC+ reliable path,
// so its difference from stencil isolates that path.
type stencil struct {
	width, height int // torus
	rows          int
	colsPerCell   int
	// warmup iterations run before timing starts; the counts taken at
	// their end are the run's deterministic prefix.
	warmup int
	lossy  bool
}

const sumEvery = 10

func stencilDefault(lossy bool) stencil {
	return stencil{width: 8, height: 8, rows: 256, colsPerCell: 8, warmup: 50, lossy: lossy}
}

func (w stencil) kinds() []spanKind { return []spanKind{spanOverlapFix, spanBarrier, spanReduce} }

type stencilInst struct {
	w          stencil
	m          *ap1000plus.Machine
	grid, next *ap1000plus.Array2D
	rts        []*ap1000plus.Runtime
	cols       int
	init       []float64 // the seeded initial grid, row-major
}

func (w stencil) setup(seed uint64, observe bool) (instance, error) {
	opts := []ap1000plus.Option{ap1000plus.WithGrid(w.width, w.height)}
	if observe {
		opts = append(opts, ap1000plus.WithObserve())
	}
	if w.lossy {
		plan, err := ap1000plus.ParseFaultPlan(fmt.Sprintf("drop=0.01,dup=0.01,reorder=0.01,seed=%d", seed))
		if err != nil {
			return nil, err
		}
		opts = append(opts, ap1000plus.WithFault(plan))
	}
	m, err := ap1000plus.New(opts...)
	if err != nil {
		return nil, err
	}
	in := &stencilInst{w: w, m: m, cols: w.colsPerCell * m.Cells()}
	if in.grid, err = ap1000plus.NewArray2D(m, "heat", w.rows, in.cols, 1); err != nil {
		return nil, err
	}
	if in.next, err = ap1000plus.NewArray2D(m, "heat2", w.rows, in.cols, 1); err != nil {
		return nil, err
	}
	in.rts = make([]*ap1000plus.Runtime, m.Cells())
	for id := range in.rts {
		if in.rts[id], err = ap1000plus.NewRuntime(m.Cell(ap1000plus.CellID(id))); err != nil {
			return nil, err
		}
	}
	rng := splitmix64(mix(seed, 1))
	in.init = make([]float64, w.rows*in.cols)
	for i := range in.init {
		in.init[i] = 100 * rng.float()
	}
	for r := range in.rts {
		lo, hi := in.grid.OwnedCols(r)
		for row := 0; row < w.rows; row++ {
			for j := lo; j < hi; j++ {
				v := in.init[row*in.cols+j]
				in.grid.Set(r, row, in.grid.LocalCol(r, j), v)
				in.next.Set(r, row, in.next.LocalCol(r, j), v)
			}
		}
	}
	return in, nil
}

func (in *stencilInst) close() error { return nil }

// relax computes one Jacobi sweep of one rank's owned columns [lo, hi)
// from cur into nxt; the global boundary stays fixed. The operand order is the
// serial reference's, so results match it bit for bit.
func relax(cur, nxt []float64, rows, cols, lo, hi, width int) {
	for row := 1; row < rows-1; row++ {
		for j := max(lo, 1); j < min(hi, cols-1); j++ {
			c := row*width + 1 + j - lo
			nxt[c] = 0.25 * (cur[c-1] + cur[c+1] + cur[c-width] + cur[c+width])
		}
	}
}

// localSum sums one rank's own elements of a local array, row by row.
func localSum(a []float64, rows, own, width int) float64 {
	s := 0.0
	for row := 0; row < rows; row++ {
		for k := 0; k < own; k++ {
			s += a[row*width+1+k]
		}
	}
	return s
}

func (in *stencilInst) run(d time.Duration, tr *tracer) (phase, error) {
	w, m := in.w, in.m
	var (
		stop     atomic.Int64 // the iteration count all cells stop at
		lat      = newSamples(1 << 16)
		sums     []float64
		t0, tEnd time.Time
		allocs0  uint64
		allocs1  uint64
		det      map[string]int64
	)
	err := m.Run(func(c *ap1000plus.Cell) error {
		rt := in.rts[c.ID()]
		r := rt.Rank()
		lo, hi := in.grid.OwnedCols(r)
		width := in.grid.LocalWidth()
		cur, nxt := in.grid, in.next
		var deadline, prev time.Time
		for it := 0; ; it++ {
			op := int64(it)
			s := tr.begin()
			if err := rt.OverlapFix2D(cur, true); err != nil {
				return err
			}
			tr.end(r, spanOverlapFix, op, s)
			relax(cur.Local(r), nxt.Local(r), w.rows, in.cols, lo, hi, width)
			cur, nxt = nxt, cur
			last := it%sumEvery == sumEvery-1
			// Rank 0 decides before the barrier, everyone reads after it,
			// so all cells stop at the same iteration.
			if r == 0 && last && it >= w.warmup && time.Now().After(deadline) {
				stop.Store(int64(it + 1))
			}
			s = tr.begin()
			rt.Barrier()
			tr.end(r, spanBarrier, op, s)
			if it == w.warmup-1 {
				if r == 0 {
					det = wireCounts(m.Metrics())
				}
				rt.Barrier()
			}
			if r == 0 {
				now := time.Now()
				switch {
				case it == w.warmup-1:
					t0, deadline, allocs0 = now, now.Add(d), heapAllocs()
				case it >= w.warmup:
					lat.add(now.Sub(prev))
				}
				prev = now
			}
			if last {
				s = tr.begin()
				sum := rt.GlobalSum(localSum(cur.Local(r), w.rows, hi-lo, width))
				tr.end(r, spanReduce, op, s)
				if r == 0 {
					sums = append(sums, sum)
				}
				if stop.Load() == int64(it+1) {
					if r == 0 {
						tEnd, allocs1 = prev, heapAllocs()
					}
					return nil
				}
			}
		}
	})
	if err != nil {
		return phase{}, err
	}
	iters := int(stop.Load())
	p := phase{
		attempted: int64(iters),
		timedOps:  int64(iters - w.warmup),
		elapsed:   tEnd.Sub(t0),
		lat:       []*samples{&lat},
		allocs:    allocs1 - allocs0,
		det:       det,
	}
	p.liveHeapMB = liveHeapMB()
	p.failed = in.check(iters, sums)
	if w.lossy {
		if ferr := m.FaultErr(); ferr != nil {
			p.failed += max(1, m.Metrics().Fault.CellFaults)
		}
	}
	if tr != nil {
		p.layers = map[string]float64{}
		counterLayers(m.Metrics(), p.attempted, p.layers)
		spanLayers(tr, p.layers, spanOverlapFix, 1e3, "vpp.overlap_fix_us_p50", "vpp.overlap_fix_us_p99")
		spanLayers(tr, p.layers, spanBarrier, 1e3, "barrier.barrier_us_p50", "")
		spanLayers(tr, p.layers, spanReduce, 1e3, "barrier.reduce_us_p50", "")
		if w.lossy {
			p.layers["fault.drops"] = float64(det["fault_drops"])
			p.layers["fault.dups"] = float64(det["fault_dups"])
			p.layers["fault.reorders"] = float64(det["fault_reorders"])
		}
	}
	return p, nil
}

// serial runs the solve on one goroutine from the same initial grid:
// the final grid and the global sum after every sumEvery-th iteration.
func (in *stencilInst) serial(iters int) (grid, sums []float64) {
	rows, cols := in.w.rows, in.cols
	cur := append([]float64(nil), in.init...)
	nxt := append([]float64(nil), in.init...)
	for it := 0; it < iters; it++ {
		for row := 1; row < rows-1; row++ {
			for j := 1; j < cols-1; j++ {
				c := row*cols + j
				nxt[c] = 0.25 * (cur[c-1] + cur[c+1] + cur[c-cols] + cur[c+cols])
			}
		}
		cur, nxt = nxt, cur
		if it%sumEvery == sumEvery-1 {
			sum := 0.0
			for _, v := range cur {
				sum += v
			}
			sums = append(sums, sum)
		}
	}
	return cur, sums
}

// check compares a finished run with the serial solve and counts
// failed iterations: every iteration of a sumEvery block whose
// GlobalSum disagrees with the serial sum (the summation orders
// differ, so within 1e-9), and at least one if the final grid is not
// bit-identical.
func (in *stencilInst) check(iters int, sums []float64) int64 {
	want, wantSums := in.serial(iters)
	var failed int64
	for k, ws := range wantSums {
		if k >= len(sums) || math.Abs(sums[k]-ws) > 1e-9*math.Abs(ws) {
			failed += sumEvery
		}
	}
	final := in.grid
	if iters%2 == 1 {
		final = in.next
	}
	for r := range in.rts {
		lo, hi := final.OwnedCols(r)
		for row := 0; row < in.w.rows; row++ {
			for j := lo; j < hi; j++ {
				if math.Float64bits(final.At(r, row, final.LocalCol(r, j))) != math.Float64bits(want[row*in.cols+j]) {
					return max(failed, 1)
				}
			}
		}
	}
	return failed
}
