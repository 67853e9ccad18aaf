package main

import "ap1000plus"

// counterLayers derives the per-layer metrics the machine counts
// itself, as totals over the whole run divided by the run's ops.
// Every workload reports them; a layer the workload bypasses reads 0.
func counterLayers(mt ap1000plus.Metrics, ops int64, layers map[string]float64) {
	t := mt.Totals()
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	var spills, refillIntrs, flagIncs int64
	for i := range mt.Cells {
		flagIncs += mt.Cells[i].FlagIncrements
		q := &mt.Cells[i].Queues
		for _, s := range [...]int64{q.UserSend.Spills, q.SysSend.Spills, q.RemoteAccess.Spills, q.GetReply.Spills, q.RemoteLoadReply.Spills} {
			spills += s
		}
		for _, s := range [...]int64{q.UserSend.Interrupts, q.SysSend.Interrupts, q.RemoteAccess.Interrupts, q.GetReply.Interrupts, q.RemoteLoadReply.Interrupts} {
			refillIntrs += s
		}
	}
	layers["snet.hw_barriers_per_op"] = per(mt.HWBarriers)
	layers["mc.flag_increments_per_op"] = per(flagIncs)
	layers["machine.flag_wait_us_per_op"] = per(t.FlagWaitNanos) / 1e3
	layers["machine.recv_dmas_per_op"] = per(t.RecvDMAs)
	layers["machine.interrupts_per_op"] = per(t.Interrupts)
	layers["msc.queue_high_water"] = float64(mt.QueueHighWater())
	layers["msc.spills_per_op"] = per(spills)
	layers["msc.refill_interrupts_per_op"] = per(refillIntrs)
	layers["tnet.msgs_per_op"] = per(mt.TNet.Messages)
	layers["tnet.bytes_per_op"] = per(mt.TNet.Bytes)
	layers["tnet.mean_hops"] = mt.TNet.MeanDistance()
	layers["machine.atomics_executed_per_op"] = per(t.AtomicsExecuted)
	layers["machine.atomic_replays"] = float64(t.AtomicReplays)
	if hm := t.DSMHits + t.DSMMisses; hm > 0 {
		layers["dsm.hit_ratio"] = float64(t.DSMHits) / float64(hm)
	}
	layers["dsm.evictions_per_op"] = per(t.DSMEvictions)
	layers["machine.retransmits_per_op"] = per(t.Retransmits)
	layers["machine.dedups_per_op"] = per(t.Dedups)
	layers["machine.backoff_ms_per_op"] = per(t.BackoffNanos) / 1e6
}

// wireCounts snapshots the counts that repeat exactly for a seed when
// taken at a fixed point of a program: T-net traffic and the faults
// the plan injected.
func wireCounts(mt ap1000plus.Metrics) map[string]int64 {
	det := map[string]int64{
		"tnet_msgs":  mt.TNet.Messages,
		"tnet_bytes": mt.TNet.Bytes,
		"tnet_hops":  mt.TNet.HopsTotal,
	}
	if f := mt.Fault; f != nil {
		det["fault_drops"] = f.Drops
		det["fault_dups"] = f.Dups
		det["fault_reorders"] = f.Reorders
	}
	return det
}

// spanLayers adds the p50 (and p99 where named) of a traced kind.
func spanLayers(tr *tracer, layers map[string]float64, k spanKind, scale float64, p50, p99 string) {
	d := tr.durations(k)
	layers[p50] = quantile(d, 0.50) / scale
	if p99 != "" {
		layers[p99] = quantile(d, 0.99) / scale
	}
}
