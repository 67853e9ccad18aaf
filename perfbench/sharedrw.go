package main

import (
	"math"
	"sync/atomic"
	"time"

	"ap1000plus"
)

// sharedRW is closed-loop fine-grained request/reply on 64 cells, in
// barrier-separated passes. Each cell runs a seeded mix of uncached
// pgas.PE.GetInt64 reads of a static table, pgas.PE.FetchAdd
// increments of a skewed histogram and cached dsm.DSM.LoadF64 reads of
// every other cell's DSM table, cycling through a fixed seeded list of
// entries so that later passes re-read what earlier ones cached (the
// cache keeps exactly the bytes a load fetched). Between passes each cell rewrites a
// rotating block of its right neighbour's table with write-through
// DSM.StoreF64 and Fence, so the owner's directory invalidates every
// cached copy. It stresses 8-byte messages, round-trip wakeups, reply
// queues, atomics and cache fill beside invalidation, and bypasses vpp
// and bulk transfer. It runs on the default wire with the default
// shard count.
//
// The page cache holds the whole working set and stores come from a
// non-owner: on the ring wire with two or more delivery shards, cache
// evictions and owner-local stores (both send from the CPU instead of
// the delivery worker) lose packets and hang the machine, so no run
// could complete. Those paths are left out until that defect is fixed.
type sharedRW struct {
	tableWords   int64 // pgas table words per cell
	bins         int64 // histogram bins
	dsmEntries   int   // DSM table entries per cell
	hot          int   // entries in each cell's DSM read list
	opsPerPass   int   // ops per cell per pass
	storesPerUpd int   // entries one update rewrites
	updEvery     int   // a table is updated every updEvery-th pass
	warmup       int   // passes before timing; also the deterministic prefix
}

func sharedRWDefault() sharedRW {
	return sharedRW{tableWords: 512, bins: 1024, dsmEntries: 1024,
		hot: 256, opsPerPass: 128, storesPerUpd: 2, updEvery: 8, warmup: 5}
}

func (w sharedRW) kinds() []spanKind {
	return []spanKind{spanGet, spanFetchAdd, spanLoad, spanStore}
}

type sharedRWInst struct {
	w      sharedRW
	seed   uint64
	m      *ap1000plus.Machine
	table  *ap1000plus.SharedArray
	histo  *ap1000plus.SharedArray
	pes    []*ap1000plus.PE
	dsms   []*ap1000plus.DSM
	dsmTab []*ap1000plus.Segment
	vals   [][]float64 // each cell's DSM table
	// reads is each cell's DSM read list of (owner, entry) pairs.
	reads [][][2]int
}

func (w sharedRW) setup(seed uint64, observe bool) (instance, error) {
	opts := []ap1000plus.Option{ap1000plus.WithCells(cells)}
	if observe {
		opts = append(opts, ap1000plus.WithObserve())
	}
	m, err := ap1000plus.New(opts...)
	if err != nil {
		return nil, err
	}
	np := m.Cells()
	in := &sharedRWInst{w: w, seed: seed, m: m,
		pes: make([]*ap1000plus.PE, np), dsms: make([]*ap1000plus.DSM, np),
		dsmTab: make([]*ap1000plus.Segment, np), vals: make([][]float64, np),
		reads: make([][][2]int, np)}
	heap, err := ap1000plus.NewSymmetricHeap(m)
	if err != nil {
		return nil, err
	}
	if in.table, err = heap.Alloc("table", w.tableWords*int64(np)); err != nil {
		return nil, err
	}
	if in.histo, err = heap.Alloc("histo", w.bins); err != nil {
		return nil, err
	}
	for i := int64(0); i < in.table.Len(); i++ {
		in.table.SetWord(i, in.tableValue(i))
	}
	pages := 0 // pages spanned by all DSM tables
	for r := 0; r < np; r++ {
		c := m.Cell(ap1000plus.CellID(r))
		if in.pes[r], err = ap1000plus.NewPE(heap, c); err != nil {
			return nil, err
		}
		if in.dsmTab[r], in.vals[r], err = c.AllocFloat64("dsm.table", w.dsmEntries); err != nil {
			return nil, err
		}
		for i := range in.vals[r] {
			in.vals[r][i] = in.dsmValue(r, i, -1)
		}
		if in.dsms[r], err = ap1000plus.NewDSM(c); err != nil {
			return nil, err
		}
		rng := splitmix64(mix(seed, 6, uint64(r)))
		in.reads[r] = make([][2]int, w.hot)
		for j := range in.reads[r] {
			o := (r + 1 + int(rng.next()%uint64(np-1))) % np
			in.reads[r][j] = [2]int{o, int(rng.next() % uint64(w.dsmEntries))}
		}
		base := int64(in.dsmTab[r].Base())
		pages += int((base+int64(w.dsmEntries)*8-1)/4096 - base/4096 + 1)
	}
	for _, d := range in.dsms {
		d.EnableWriteThroughPages()
		d.SetCacheCapacity(pages)
	}
	return in, nil
}

func (in *sharedRWInst) close() error { return nil }

func (in *sharedRWInst) tableValue(i int64) int64 { return int64(mix(in.seed, 2, uint64(i)) >> 1) }

// dsmValue is entry i of owner o as rewritten by update number n; n ==
// -1 is the initial value.
func (in *sharedRWInst) dsmValue(o, i, n int) float64 {
	return float64(mix(in.seed, 3, uint64(o), uint64(i), uint64(n+1))>>11) / (1 << 20)
}

// updates reports whether owner o's table is rewritten at the end of
// pass p, and the number of updates it had before pass p.
func (in *sharedRWInst) updates(o, p int) (now bool, before int) {
	first := (in.w.updEvery - o%in.w.updEvery) % in.w.updEvery
	if p > first {
		before = (p - first + in.w.updEvery - 1) / in.w.updEvery
	}
	return p%in.w.updEvery == first, before
}

// expectDSM is the model of entry i of owner o during pass p: update n
// rewrites the storesPerUpd entries of block n mod (entries/block).
func (in *sharedRWInst) expectDSM(o, i, p int) float64 {
	_, before := in.updates(o, p)
	blocks := in.w.dsmEntries / in.w.storesPerUpd
	b := i / in.w.storesPerUpd
	if before <= b {
		return in.dsmValue(o, i, -1)
	}
	last := before - 1 - (before-1-b)%blocks
	return in.dsmValue(o, i, last)
}

// cellCounts is what one cell's goroutine accumulates.
type cellCounts struct {
	ops, failed, stores int64
	adds                []int64 // histogram increments per bin
	lat                 samples
}

func (in *sharedRWInst) run(d time.Duration, tr *tracer) (phase, error) {
	w, m := in.w, in.m
	np := m.Cells()
	counts := make([]cellCounts, np)
	for r := range counts {
		counts[r].adds = make([]int64, w.bins)
		counts[r].lat = newSamples(1 << 14)
	}
	var (
		stop     atomic.Int64 // the pass count all cells stop at
		t0, tEnd time.Time
		allocs0  uint64
		allocs1  uint64
		timed0   = make([]int64, np) // per-cell op counts when timing started
		det      map[string]int64
	)
	err := m.Run(func(c *ap1000plus.Cell) error {
		r := int(c.ID())
		pe, dsm, cc := in.pes[r], in.dsms[r], &counts[r]
		rng := splitmix64(mix(in.seed, 4, uint64(r)))
		remote := func() int { return (r + 1 + int(rng.next()%uint64(np-1))) % np }
		var deadline time.Time
		loads := 0
		for p := 0; ; p++ {
			timing, op := p >= w.warmup, int64(p)
			for k := 0; k < w.opsPerPass; k++ {
				kind := rng.next() % 100
				var start time.Time
				if timing {
					start = time.Now()
				}
				switch {
				case kind < 45:
					o := remote()
					i := int64(rng.next()%uint64(w.tableWords))*int64(np) + int64(o)
					s := tr.begin()
					v, err := pe.GetInt64(in.table, i)
					tr.end(r, spanGet, op, s)
					if err != nil {
						return err
					}
					if v != in.tableValue(i) {
						cc.failed++
					}
				case kind < 65:
					// Skewed bins: a cube of a uniform crowds the low bins.
					u := rng.float()
					bin := int64(u * u * u * float64(w.bins))
					s := tr.begin()
					prev, err := pe.FetchAdd(in.histo, bin, 1)
					tr.end(r, spanFetchAdd, op, s)
					if err != nil {
						return err
					}
					if prev < 0 {
						cc.failed++
					}
					cc.adds[bin]++
				default:
					o, i := in.reads[r][loads%w.hot][0], in.reads[r][loads%w.hot][1]
					loads++
					ga, err := dsm.Space().Global(ap1000plus.CellID(o), in.dsmTab[o].Base()+ap1000plus.Addr(8*i))
					if err != nil {
						return err
					}
					s := tr.begin()
					v, err := dsm.LoadF64(ga)
					tr.end(r, spanLoad, op, s)
					if err != nil {
						return err
					}
					if math.Float64bits(v) != math.Float64bits(in.expectDSM(o, i, p)) {
						cc.failed++
					}
				}
				if timing {
					cc.lat.add(time.Since(start))
				}
				cc.ops++
			}
			// Separate every cell's reads from this pass's updates.
			pe.Barrier()
			// Rewrite this pass's block of the right neighbour's table.
			o := (r + 1) % np
			if now, n := in.updates(o, p); now {
				blocks := w.dsmEntries / w.storesPerUpd
				for j := 0; j < w.storesPerUpd; j++ {
					i := (n%blocks)*w.storesPerUpd + j
					ga, err := dsm.Space().Global(ap1000plus.CellID(o), in.dsmTab[o].Base()+ap1000plus.Addr(8*i))
					if err != nil {
						return err
					}
					var start time.Time
					if timing {
						start = time.Now()
					}
					s := tr.begin()
					err = dsm.StoreF64(ga, in.dsmValue(o, i, n))
					tr.end(r, spanStore, op, s)
					if err != nil {
						return err
					}
					if timing {
						cc.lat.add(time.Since(start))
					}
					cc.ops++
					cc.stores++
				}
				dsm.Fence()
			}
			if r == 0 && timing && time.Now().After(deadline) {
				stop.Store(int64(p + 1))
			}
			// Order this pass's updates before the next pass's reads.
			pe.Barrier()
			if p == w.warmup-1 {
				if r == 0 {
					det = wireCounts(m.Metrics())
				}
				pe.Barrier()
				timed0[r] = cc.ops
				if r == 0 {
					t0 = time.Now()
					deadline, allocs0 = t0.Add(d), heapAllocs()
				}
			}
			if stop.Load() == int64(p+1) {
				if r == 0 {
					tEnd, allocs1 = time.Now(), heapAllocs()
				}
				return nil
			}
		}
	})
	if err != nil {
		return phase{}, err
	}
	p := phase{elapsed: tEnd.Sub(t0), allocs: allocs1 - allocs0, det: det}
	var stores int64
	bufs := make([]*samples, np)
	for r := range counts {
		cc := &counts[r]
		p.attempted += cc.ops
		p.timedOps += cc.ops - timed0[r]
		p.failed += cc.failed
		stores += cc.stores
		bufs[r] = &cc.lat
	}
	p.lat = bufs
	// The final histogram must equal the increments issued.
	for b := int64(0); b < w.bins; b++ {
		var want int64
		for r := range counts {
			want += counts[r].adds[b]
		}
		if got := in.histo.Word(b); got != want {
			p.failed += max(got-want, want-got)
		}
	}
	p.liveHeapMB = liveHeapMB()
	if tr != nil {
		mt := m.Metrics()
		p.layers = map[string]float64{}
		counterLayers(mt, p.attempted, p.layers)
		spanLayers(tr, p.layers, spanGet, 1e3, "pgas.get_us_p50", "pgas.get_us_p99")
		spanLayers(tr, p.layers, spanFetchAdd, 1e3, "pgas.fetch_add_us_p50", "pgas.fetch_add_us_p99")
		spanLayers(tr, p.layers, spanLoad, 1e3, "dsm.load_us_p50", "dsm.load_us_p99")
		spanLayers(tr, p.layers, spanStore, 1e3, "dsm.store_us_p50", "")
		if stores > 0 {
			p.layers["dsm.invals_sent_per_store"] = float64(mt.Totals().DSMInvalsSent) / float64(stores)
		}
	}
	return p, nil
}
