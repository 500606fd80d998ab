package main

import (
	"fmt"
	"sort"
	"time"
)

// value is one emitted number. Samples holds the per-window readings
// behind a median, so -compare can judge the spread.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

type values map[string]value

// set stores a metric under its ledger name. An unknown name is a bug in
// the benchmark, not a measurement outcome.
func (v values) set(name string, x float64, samples ...float64) {
	d, ok := ledgerIndex[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the ledger")
	}
	v[name] = value{Value: x, Unit: d.Unit, Samples: samples}
}

// delta is b-a for counters that only grow; a restart of the counted
// object must not wrap it around.
func delta(a, b uint64) uint64 {
	if b < a {
		return 0
	}
	return b - a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// componentOf maps a layer name of the ledger to the program's component
// name.
var componentOf = map[string]string{
	"vfs": "vfs", "ninep": "9pfs", "lwip": "lwip", "netdev": "netdev", "virtio": "virtio",
}

// recoveryChunk is four turns of kv_heal's five-way rotation: every chunk
// of that many consecutive recoveries holds the same mix of them.
const recoveryChunk = 20

var componentLayers = []string{"vfs", "ninep", "lwip", "netdev", "virtio"}

// measured turns one untraced execution into the E rows (end to end,
// client, proc) and the C rows (counter deltas over the timed phase).
func measured(m *measurement) values {
	v := make(values)
	ops := m.ops
	a, b := m.first, m.last

	v.set("wall_ops_per_s", median(m.opsPerS), m.opsPerS...)
	v.set("cpu_us_per_op", median(m.cpuUs), m.cpuUs...)
	v.set("allocs_per_op", m.allocs)
	v.set("alloc_kb_per_op", m.allocKB)
	v.set("virt_us_per_op", us(m.virt)/float64(ops))
	v.set("virt_p50_us", us(quantile(m.virtLat, 0.5)))
	v.set("virt_p999_us", us(quantile(m.virtLat, 0.999)))
	v.set("guest_mem_mb", float64(b.residentB+b.domainB)/(1<<20))
	v.set("failed_ops_ratio", ratio(float64(m.failed), float64(m.attempted)))

	// Recoveries in the order they happened (At is on the virtual clock).
	type recovery struct {
		at   time.Time
		wall time.Duration
	}
	var recs []recovery
	var recVirt time.Duration
	var replayed, restored int
	microWall := make([]time.Duration, 0, len(m.micros))
	rebootWall := make(map[string][]time.Duration)
	for _, rec := range m.micros {
		recs = append(recs, recovery{rec.At, rec.WallDuration})
		recVirt += rec.VirtualDuration
		replayed += rec.ReplayedEntries
		microWall = append(microWall, rec.WallDuration)
	}
	for _, rec := range m.reboots {
		recs = append(recs, recovery{rec.At, rec.WallDuration})
		recVirt += rec.VirtualDuration
		replayed += rec.ReplayedEntries
		restored += rec.RestoredPages
		rebootWall[rec.Group] = append(rebootWall[rec.Group], rec.WallDuration)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].at.Before(recs[j].at) })
	// The wall mean is taken per chunk of consecutive recoveries and the
	// median chunk reported, so one stalled recovery does not move it.
	var chunkMeans []float64
	for i := 0; i < len(recs); i += recoveryChunk {
		chunk := recs[i:min(i+recoveryChunk, len(recs))]
		var sum time.Duration
		for _, rec := range chunk {
			sum += rec.wall
		}
		chunkMeans = append(chunkMeans, us(sum)/float64(len(chunk)))
	}
	recoveries := float64(len(recs))
	v.set("recover_wall_us_mean", median(chunkMeans), chunkMeans...)
	v.set("recover_virt_us_mean", ratio(us(recVirt), recoveries))

	v.set("sched.dispatches_per_op", perOp(delta(a.sch.Dispatches, b.sch.Dispatches), ops))
	v.set("sched.clock_advances_per_op", perOp(delta(a.sch.ClockAdvances, b.sch.ClockAdvances), ops))
	v.set("sched.rounds_per_op", perOp(delta(a.sch.Rounds, b.sch.Rounds), ops))
	v.set("sched.slices_per_op", perOp(delta(a.sch.Slices, b.sch.Slices), ops))
	v.set("sched.pen_width", ratio(float64(delta(a.sch.Penned, b.sch.Penned)), float64(delta(a.sch.PenFlushes, b.sch.PenFlushes))))
	sliceWall := b.sch.SliceWall - a.sch.SliceWall
	v.set("sched.slice_wall_share", ratio(float64(sliceWall), float64(m.wall)))
	v.set("sched.round_critical_share", ratio(float64(b.sch.RoundCritical-a.sch.RoundCritical), float64(sliceWall)))

	var appended, removed, compacted, dirty, truncated uint64
	for name, cb := range b.comps {
		ca := a.comps[name]
		appended += delta(ca.LogStats.Appended, cb.LogStats.Appended)
		removed += delta(ca.LogStats.Removed, cb.LogStats.Removed)
		compacted += delta(ca.LogStats.Compacted, cb.LogStats.Compacted)
		dirty += delta(ca.Ckpt.DirtyPages, cb.Ckpt.DirtyPages)
		truncated += delta(ca.Ckpt.TruncatedEntries, cb.Ckpt.TruncatedEntries)
	}
	v.set("msg.messages_per_op", perOp(delta(a.rt.Messages, b.rt.Messages), ops))
	v.set("msg.log_appended_per_op", perOp(appended, ops))
	v.set("msg.log_removed_per_op", perOp(removed, ops))
	v.set("msg.log_compacted_per_op", perOp(compacted, ops))
	v.set("msg.log_len_end", float64(b.logLen))
	v.set("msg.domain_kb_end", float64(b.domainB)/1024)

	v.set("mem.pkru_faults", float64(delta(a.pkru, b.pkru)))

	v.set("core.calls_per_op", perOp(delta(a.rt.Calls, b.rt.Calls), ops))
	v.set("core.injects_per_op", perOp(delta(a.rt.Injects, b.rt.Injects), ops))
	v.set("core.recoveries_rung1", float64(len(m.micros)))
	v.set("core.recoveries_rung2", float64(len(m.reboots)))
	v.set("core.microreboot_wall_us_p50", us(quantile(sorted(microWall), 0.5)))
	for _, layer := range []string{"vfs", "ninep", "lwip", "netdev"} {
		v.set("core.reboot_wall_us_p50."+layer, us(quantile(sorted(rebootWall[componentOf[layer]]), 0.5)))
	}
	v.set("core.replayed_per_recovery", ratio(float64(replayed), recoveries))
	v.set("core.restored_pages_per_recovery", ratio(float64(restored), recoveries))
	v.set("core.failed_restores", float64(delta(a.rt.FailedRestores, b.rt.FailedRestores)))
	v.set("core.micro_escalations", float64(delta(a.rt.MicroEscalates, b.rt.MicroEscalates)))

	ckpts := delta(a.rt.Checkpoints, b.rt.Checkpoints)
	v.set("ckpt.checkpoints_per_kop", perOp(ckpts*1000, ops))
	v.set("ckpt.dirty_pages_per_ckpt", ratio(float64(dirty), float64(ckpts)))
	v.set("ckpt.truncated_per_ckpt", ratio(float64(truncated), float64(ckpts)))

	for _, layer := range componentLayers {
		ca, cb := a.comps[componentOf[layer]], b.comps[componentOf[layer]]
		v.set(layer+".calls_per_op", perOp(delta(ca.Calls, cb.Calls), ops))
		v.set(layer+".busy_virt_us_per_op", us(cb.Busy-ca.Busy)/float64(ops))
	}

	v.set("host.p9_handled_per_op", perOp(delta(a.p9, b.p9), ops))
	v.set("host.fsyncs_per_op", perOp(delta(a.fsyncs, b.fsyncs), ops))
	v.set("host.fs_writes_per_op", perOp(delta(a.fsWrites, b.fsWrites), ops))

	v.set("client.wall_p50_us", us(quantile(m.wallLat, 0.5)))
	v.set("client.wall_p99_us", us(quantile(m.wallLat, 0.99)))
	v.set("client.openloop_late_p99_us", us(quantile(m.late, 0.99)))

	v.set("proc.sys_cpu_share", m.sysShare)
	v.set("proc.peak_rss_mb", peakRSSMiB())
	v.set("proc.gc_cycles", float64(m.gcCycles))
	v.set("proc.gc_pause_ms", float64(m.gcPause.Nanoseconds())/1e6)
	return v
}

// result is what one child run reports: one workload, traced or not.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Ops       int    `json:"ops"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   values `json:"metrics"`
	// Rotation is kv_heal's seeded order of recovery targets.
	Rotation string `json:"rotation,omitempty"`
}

// table renders the metrics by name with unit, clock and source, in
// ledger order.
func (r *result) table() string {
	out := fmt.Sprintf("%s seed=%d trace=%d ops=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Ops, r.Attempted, r.Failed)
	for _, d := range ledger {
		if mv, ok := r.Metrics[d.Name]; ok {
			out += fmt.Sprintf("  %-34s %16.4f %-8s %-7s %s\n", d.Name, mv.Value, mv.Unit, d.Clock, d.Source)
		}
	}
	return out
}

// contractLine is the last line of a driver run: exactly correct,
// attempted, failed and metrics, the metrics being BENCHMARK.json's
// end_to_end list for an untraced run and its per_layer list for a traced
// one.
func (r *result) contractLine() map[string]any {
	gate := gateE2E
	if r.Trace != 0 {
		gate = gateLayer
	}
	metrics := make(map[string]map[string]any)
	for _, d := range ledger {
		if mv, ok := r.Metrics[d.Name]; ok && d.Gate == gate {
			metrics[d.Name] = map[string]any{"value": mv.Value, "unit": mv.Unit}
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}
