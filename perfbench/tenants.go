package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ap1000plus"
)

// tenants is an open-loop Poisson job stream onto 64 cells in 4
// partitions, submitted through tenancy.Scheduler.Submit. The
// benchmark paces arrivals itself against absolute due times and times
// every job from its due time, so a stall shows in the jobs behind it.
// The rate is well below saturation (a 2-CPU host sustains about 11k
// jobs/s): near half of that, queueing amplifies small changes in host
// speed so much that the p99 no longer repeats from run to run. Each
// job is a 4-PUT ring inside its partition ended by a flag wait. It is
// the only workload with queueing and the Open/RunJob/Close job
// lifecycle; the wire does little per job.
type tenants struct {
	parts   int
	rate    float64 // offered jobs per second
	puts    int     // PUTs per cell per job
	payload int64   // bytes per PUT
	// warmup is the arrival time before timing starts; jobs due in it
	// run but are not measured.
	warmup time.Duration
}

func tenantsDefault() tenants {
	return tenants{parts: 4, rate: 4000, puts: 4, payload: 256, warmup: 500 * time.Millisecond}
}

func (w tenants) kinds() []spanKind { return []spanKind{spanPut, spanFlagWait, spanSubmit} }

type tenantsInst struct {
	w     tenants
	seed  uint64
	m     *ap1000plus.Machine
	sched *ap1000plus.Scheduler
	src   []ap1000plus.Addr
	dst   []ap1000plus.Addr
}

func (w tenants) setup(seed uint64, observe bool) (instance, error) {
	opts := []ap1000plus.Option{ap1000plus.WithCells(cells), ap1000plus.WithPartitions(w.parts),
		ap1000plus.WithMemoryPerCell(1 << 16)}
	if observe {
		opts = append(opts, ap1000plus.WithObserve())
	}
	m, err := ap1000plus.New(opts...)
	if err != nil {
		return nil, err
	}
	in := &tenantsInst{w: w, seed: seed, m: m,
		src: make([]ap1000plus.Addr, m.Cells()), dst: make([]ap1000plus.Addr, m.Cells())}
	// One source and destination buffer per cell, reused by every job.
	for id := range in.src {
		c := m.Cell(ap1000plus.CellID(id))
		s, _, err := c.AllocBytes("job-src", w.payload)
		if err != nil {
			return nil, err
		}
		d, _, err := c.AllocBytes("job-dst", w.payload)
		if err != nil {
			return nil, err
		}
		in.src[id], in.dst[id] = s.Base(), d.Base()
	}
	if in.sched, err = ap1000plus.NewScheduler(m); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *tenantsInst) close() error { return in.sched.Close() }

// jobRec is the generator's record of one arrival.
type jobRec struct {
	due, submitted time.Time
	ticket         *ap1000plus.Ticket
}

func (in *tenantsInst) run(d time.Duration, tr *tracer) (phase, error) {
	w, m := in.w, in.m
	var flagIncs atomic.Int64
	program := func(rank, size int, c *ap1000plus.Cell) error {
		comm := ap1000plus.NewComm(c)
		right := m.Partition(m.PartitionOf(c.ID())).Group().RingNext(c.ID())
		recv := c.Flags.Alloc()
		lane := int(c.ID())
		for i := 0; i < w.puts; i++ {
			s := tr.begin()
			err := comm.Put(ap1000plus.Transfer{
				To: right, Remote: in.dst[right], Local: in.src[c.ID()],
				Size: w.payload, RecvFlag: recv,
			})
			tr.end(lane, spanPut, 0, s)
			if err != nil {
				return err
			}
		}
		s := tr.begin()
		c.Flags.Wait(recv, int64(w.puts))
		tr.end(lane, spanFlagWait, 0, s)
		// Flags reset at every job start, so this is the job's count;
		// the machine's snapshot keeps only each cell's last job.
		flagIncs.Add(c.Flags.Increments())
		return nil
	}
	job := ap1000plus.TenantJob{Program: program}

	total := w.warmup + d
	recs := make([]jobRec, 0, int(w.rate*total.Seconds()*1.2)+1024)
	rng := splitmix64(mix(in.seed, 5))
	start := time.Now().Add(time.Millisecond)
	timedStart := start.Add(w.warmup)
	var allocs0 uint64
	due := start
	for i := 0; ; i++ {
		gap := -math.Log(1-rng.float()) / w.rate
		due = due.Add(time.Duration(gap * float64(time.Second)))
		if due.Sub(start) >= total {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if allocs0 == 0 && !due.Before(timedStart) {
			allocs0 = heapAllocs()
		}
		s := time.Now()
		tk, err := in.sched.Submit(job)
		tr.end(cells, spanSubmit, int64(i), s)
		if err != nil {
			return phase{}, err
		}
		recs = append(recs, jobRec{due: due, submitted: s, ticket: tk})
	}
	in.sched.Drain()
	allocs1 := heapAllocs()

	p := phase{attempted: int64(len(recs))}
	lat, lag := newSamples(len(recs)), newSamples(len(recs))
	queue, runs := newSamples(len(recs)), newSamples(len(recs))
	var end time.Time
	var busy time.Duration
	for _, rec := range recs {
		res := rec.ticket.Wait()
		if res.Err != nil {
			p.failed++
		}
		if rec.due.Before(timedStart) {
			continue
		}
		p.timedOps++
		if res.Done.After(end) {
			end = res.Done
		}
		lat.add(res.Done.Sub(rec.due))
		lag.add(rec.submitted.Sub(rec.due))
		queue.add(res.QueueLatency())
		runs.add(res.RunLatency())
		busy += res.RunLatency()
	}
	if p.timedOps == 0 {
		return p, fmt.Errorf("tenants: no timed jobs")
	}
	p.elapsed = end.Sub(timedStart)
	p.lat = []*samples{&lat}
	p.allocs = allocs1 - allocs0
	mt := m.Metrics()
	// The arrivals, and so every job's traffic, follow from the seed.
	p.det = wireCounts(mt)
	p.det["jobs"] = int64(len(recs))
	p.liveHeapMB = liveHeapMB()
	if tr != nil {
		p.layers = map[string]float64{}
		counterLayers(mt, p.attempted, p.layers)
		spanLayers(tr, p.layers, spanPut, 1, "core.put_issue_ns_p50", "")
		spanLayers(tr, p.layers, spanFlagWait, 1e3, "mc.flag_wait_us_p50", "")
		spanLayers(tr, p.layers, spanSubmit, 1e3, "tenancy.submit_us_p50", "")
		p.layers["mc.flag_increments_per_op"] = float64(flagIncs.Load()) / float64(p.attempted)
		q, r := sortedOf(&queue), sortedOf(&runs)
		p.layers["tenancy.queue_us_p50"] = quantile(q, 0.50) / 1e3
		p.layers["tenancy.queue_us_p99"] = quantile(q, 0.99) / 1e3
		p.layers["tenancy.run_us_p50"] = quantile(r, 0.50) / 1e3
		p.layers["tenancy.run_us_p99"] = quantile(r, 0.99) / 1e3
		p.layers["tenancy.partition_busy_share"] = busy.Seconds() / (float64(w.parts) * p.elapsed.Seconds())
		p.layers["loadgen.lag_us_p99"] = quantile(sortedOf(&lag), 0.99) / 1e3
	}
	return p, nil
}
