package main

// The ledger is the single list of every number the benchmark emits.
// BENCHMARK.json names the same metrics (bench_test.go keeps the two in
// step); the fields BENCHMARK.json has no key for — clock, source, what a
// metric is expected to move — live here and in README.md.

// Metric sources.
const (
	srcE = "E" // end to end: measured around the whole timed phase
	srcC = "C" // the program's own public counters, delta over the timed phase (exact)
	srcT = "T" // benchmark-owned span around a batch of calls of one layer's public functions
	srcR = "R" // derived from the program's flight recorder in the traced segment
)

// Clocks. VampOS-in-Go is a simulator, so every number is one of two
// kinds: virtual (the modelled design; deterministic, compared exact) or
// wall/host (this implementation; compared within a bound).
const (
	clkVirtual = "virtual"
	clkWall    = "wall"
	clkHost    = "host" // host resources other than time: CPU, allocations, memory
)

// Where BENCHMARK.json lists a metric. Its end_to_end block may only hold
// metrics that every workload emits, that are never zero and that differ
// from run to run, so the virtual, zero-valued and kv_heal-only metrics of
// the end-to-end set are listed under per_layer there. So is cpu_us_per_op:
// it carries the same machine noise as wall_ops_per_s, and as a time (lower
// is better) a 1.3x slow spell of the host moves it by 30 %, past any bound
// the driver allows, where the rate moves by 23 %.
const (
	gateE2E   = "end_to_end"
	gateLayer = "per_layer"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string // "e2e" or the module the number belongs to
	Source string
	Clock  string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Zero on an
	// end-to-end metric means exact: any difference is reported.
	Bound float64
	Gate  string
	// Moves names the end-to-end metrics and workloads the number is
	// expected to move, written down before anything was measured.
	Moves string
}

func (d metricDef) exact() bool { return d.Layer == "e2e" && d.Bound == 0 }

// Interaction predictions shared by many rows.
const (
	movesHot    = "wall_ops_per_s cpu_us_per_op allocs_per_op on echo_rtt most, sqlite_insert visibly; every virt_* identical"
	movesFS     = "wall_ops_per_s alloc_kb_per_op on sqlite_insert and the SET half of kv_heal; nothing on echo_rtt"
	movesNet    = "wall_ops_per_s on echo_rtt and kv_sharded; nothing on sqlite_insert"
	movesRound  = "wall_ops_per_s on kv_sharded; reads 0 on the other three"
	movesHeal   = "recover_wall_us_mean and virt_p999_us on kv_heal; nothing elsewhere"
	movesCkpt   = "trades wall_ops_per_s against recover_*_us_mean and virt_p999_us, all on kv_heal"
	movesDesign = "a change here is a change to the modelled design, not to the simulator"
	movesDiag   = "diagnostic; explains a move in wall_ops_per_s or cpu_us_per_op, gates nothing"
)

var ledger = []metricDef{
	// End to end (12). Every workload reports the first ten; the two
	// recover_* metrics are zero off kv_heal.
	{"wall_ops_per_s", "ops/s", "higher", "e2e", srcE, clkWall, 0.25, gateE2E, "the headline; median over equal-op windows"},
	{"cpu_us_per_op", "us", "lower", "e2e", srcE, clkHost, 0.25, gateLayer, "user+sys CPU; separates work from waiting"},
	{"allocs_per_op", "count", "lower", "e2e", srcE, clkHost, 0.01, gateE2E, "Go mallocs; moved by codec, message and log changes"},
	{"alloc_kb_per_op", "KiB", "lower", "e2e", srcE, clkHost, 0.02, gateE2E, "allocated bytes; moved by copies and host-file growth"},
	{"setup_s", "s", "lower", "e2e", srcE, clkWall, 0.25, gateE2E, "boot, app start, dial, warm-up; work moved into set-up shows here"},
	{"virt_us_per_op", "virt_us", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, movesDesign},
	{"virt_p50_us", "virt_us", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, movesDesign},
	{"virt_p999_us", "virt_us", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, movesDesign + "; on kv_heal this is latency across a heal"},
	{"guest_mem_mb", "MiB", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, movesDesign},
	{"failed_ops_ratio", "ratio", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, "must stay 0 on all four workloads"},
	{"recover_wall_us_mean", "us", "lower", "e2e", srcE, clkWall, 0.25, gateLayer, "kv_heal only; median over chunks of 20 consecutive recoveries of the chunk's mean"},
	{"recover_virt_us_mean", "virt_us", "lower", "e2e", srcE, clkVirtual, 0, gateLayer, "kv_heal only; " + movesDesign},

	// sched (10)
	{"sched.dispatches_per_op", "count", "lower", "sched", srcC, clkVirtual, 0, gateLayer, movesHot + "; with sched.handoff_ns"},
	{"sched.clock_advances_per_op", "count", "lower", "sched", srcC, clkVirtual, 0, gateLayer, movesDiag},
	{"sched.rounds_per_op", "count", "lower", "sched", srcC, clkVirtual, 0, gateLayer, movesRound},
	{"sched.slices_per_op", "count", "lower", "sched", srcC, clkVirtual, 0, gateLayer, movesRound},
	{"sched.pen_width", "count", "higher", "sched", srcC, clkVirtual, 0, gateLayer, movesRound},
	{"sched.slice_wall_share", "ratio", "higher", "sched", srcC, clkWall, 0, gateLayer, movesRound},
	{"sched.round_critical_share", "ratio", "lower", "sched", srcC, clkWall, 0, gateLayer, movesRound},
	{"sched.handoff_ns", "ns", "lower", "sched", srcT, clkWall, 0, gateLayer, movesHot},
	{"sched.block_wake_ns", "ns", "lower", "sched", srcT, clkWall, 0, gateLayer, movesHot},
	{"sched.sleep_wake_ns", "ns", "lower", "sched", srcT, clkWall, 0, gateLayer, "wall_ops_per_s on sqlite_insert (pollers sleeping across virtual I/O latency)"},

	// msg (15)
	{"msg.messages_per_op", "count", "lower", "msg", srcC, clkVirtual, 0, gateLayer, movesHot + "; with msg.*_ns"},
	{"msg.log_appended_per_op", "count", "lower", "msg", srcC, clkVirtual, 0, gateLayer, movesFS},
	{"msg.log_removed_per_op", "count", "higher", "msg", srcC, clkVirtual, 0, gateLayer, movesFS},
	{"msg.log_compacted_per_op", "count", "higher", "msg", srcC, clkVirtual, 0, gateLayer, movesFS},
	{"msg.log_len_end", "count", "lower", "msg", srcC, clkVirtual, 0, gateLayer, "recover_*_us_mean on kv_heal (replay length)"},
	{"msg.domain_kb_end", "KiB", "lower", "msg", srcC, clkVirtual, 0, gateLayer, "guest_mem_mb"},
	{"msg.encode_ns", "ns", "lower", "msg", srcT, clkWall, 0, gateLayer, movesHot},
	{"msg.decode_ns", "ns", "lower", "msg", srcT, clkWall, 0, gateLayer, movesHot},
	{"msg.codec_allocs", "count", "lower", "msg", srcT, clkHost, 0, gateLayer, "allocs_per_op on all four"},
	{"msg.push_pull_ns", "ns", "lower", "msg", srcT, clkWall, 0, gateLayer, movesHot},
	{"msg.push_pull_allocs", "count", "lower", "msg", srcT, clkHost, 0, gateLayer, "allocs_per_op on all four"},
	{"msg.log_record_ns", "ns", "lower", "msg", srcT, clkWall, 0, gateLayer, movesFS},
	{"msg.log_record_allocs", "count", "lower", "msg", srcT, clkHost, 0, gateLayer, "allocs_per_op on sqlite_insert and kv_heal"},
	{"msg.log_entries_us_per_1k", "us", "lower", "msg", srcT, clkWall, 0, gateLayer, movesHeal},
	{"msg.log_truncate_us_per_1k", "us", "lower", "msg", srcT, clkWall, 0, gateLayer, movesCkpt},

	// mem (7)
	{"mem.read_ns_256b", "ns", "lower", "mem", srcT, clkWall, 0, gateLayer, movesHot},
	{"mem.write_ns_256b", "ns", "lower", "mem", srcT, clkWall, 0, gateLayer, movesHot},
	{"mem.snapshot_us_256p", "us", "lower", "mem", srcT, clkWall, 0, gateLayer, "setup_s (post-init checkpoints)"},
	{"mem.snapshot_delta_us_8dirty", "us", "lower", "mem", srcT, clkWall, 0, gateLayer, movesCkpt},
	{"mem.restore_us_256p", "us", "lower", "mem", srcT, clkWall, 0, gateLayer, movesHeal},
	{"mem.buddy_alloc_free_ns", "ns", "lower", "mem", srcT, clkWall, 0, gateLayer, movesHot},
	{"mem.pkru_faults", "count", "lower", "mem", srcC, clkVirtual, 0, gateLayer, "must stay 0: no workload crosses a protection domain"},

	// core (20)
	{"core.calls_per_op", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesHot},
	{"core.injects_per_op", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesNet},
	{"core.recoveries_rung1", "count", "higher", "core", srcC, clkVirtual, 0, gateLayer, movesHeal},
	{"core.recoveries_rung2", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesHeal},
	{"core.microreboot_wall_us_p50", "us", "lower", "core", srcC, clkWall, 0, gateLayer, movesHeal},
	{"core.reboot_wall_us_p50.vfs", "us", "lower", "core", srcC, clkWall, 0, gateLayer, movesHeal},
	{"core.reboot_wall_us_p50.ninep", "us", "lower", "core", srcC, clkWall, 0, gateLayer, movesHeal},
	{"core.reboot_wall_us_p50.lwip", "us", "lower", "core", srcC, clkWall, 0, gateLayer, movesHeal},
	{"core.reboot_wall_us_p50.netdev", "us", "lower", "core", srcC, clkWall, 0, gateLayer, movesHeal},
	{"core.replayed_per_recovery", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesHeal},
	{"core.restored_pages_per_recovery", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesHeal},
	{"core.failed_restores", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, "must stay 0"},
	{"core.micro_escalations", "count", "lower", "core", srcC, clkVirtual, 0, gateLayer, movesHeal},
	{"core.syscall_getpid_ns", "ns", "lower", "core", srcT, clkWall, 0, gateLayer, movesHot + "; Fig. 5 in wall time"},
	{"core.syscall_getpid_vanilla_ns", "ns", "lower", "core", srcT, clkWall, 0, gateLayer, "the direct-call floor under core.syscall_getpid_ns"},
	{"core.syscall_getpid_allocs", "count", "lower", "core", srcT, clkHost, 0, gateLayer, "allocs_per_op on all four"},
	{"core.phase_quiesce_wall_us", "us", "lower", "core", srcR, clkWall, 0, gateLayer, movesHeal},
	{"core.phase_restore_wall_us", "us", "lower", "core", srcR, clkWall, 0, gateLayer, movesHeal},
	{"core.phase_replay_wall_us", "us", "lower", "core", srcR, clkWall, 0, gateLayer, movesHeal},
	{"core.phase_resume_wall_us", "us", "lower", "core", srcR, clkWall, 0, gateLayer, movesHeal},

	// ckpt (4)
	{"ckpt.checkpoints_per_kop", "count", "lower", "ckpt", srcC, clkVirtual, 0, gateLayer, movesCkpt},
	{"ckpt.dirty_pages_per_ckpt", "count", "lower", "ckpt", srcC, clkVirtual, 0, gateLayer, movesCkpt},
	{"ckpt.truncated_per_ckpt", "count", "higher", "ckpt", srcC, clkVirtual, 0, gateLayer, movesCkpt},
	{"ckpt.checkpoint_wall_us", "us", "lower", "ckpt", srcT, clkWall, 0, gateLayer, movesCkpt},

	// components (16)
	{"vfs.calls_per_op", "count", "lower", "vfs", srcC, clkVirtual, 0, gateLayer, movesHot},
	{"vfs.busy_virt_us_per_op", "virt_us", "lower", "vfs", srcC, clkVirtual, 0, gateLayer, movesDesign},
	{"vfs.exec_self_share", "ratio", "lower", "vfs", srcR, clkWall, 0, gateLayer, movesDiag},
	{"ninep.calls_per_op", "count", "lower", "ninep", srcC, clkVirtual, 0, gateLayer, movesFS},
	{"ninep.busy_virt_us_per_op", "virt_us", "lower", "ninep", srcC, clkVirtual, 0, gateLayer, movesDesign},
	{"ninep.exec_self_share", "ratio", "lower", "ninep", srcR, clkWall, 0, gateLayer, movesDiag},
	{"lwip.calls_per_op", "count", "lower", "lwip", srcC, clkVirtual, 0, gateLayer, movesNet},
	{"lwip.busy_virt_us_per_op", "virt_us", "lower", "lwip", srcC, clkVirtual, 0, gateLayer, movesDesign},
	{"lwip.exec_self_share", "ratio", "lower", "lwip", srcR, clkWall, 0, gateLayer, movesDiag},
	{"netdev.calls_per_op", "count", "lower", "netdev", srcC, clkVirtual, 0, gateLayer, movesNet},
	{"netdev.busy_virt_us_per_op", "virt_us", "lower", "netdev", srcC, clkVirtual, 0, gateLayer, movesDesign},
	{"netdev.exec_self_share", "ratio", "lower", "netdev", srcR, clkWall, 0, gateLayer, movesDiag},
	{"virtio.calls_per_op", "count", "lower", "virtio", srcC, clkVirtual, 0, gateLayer, movesHot},
	{"virtio.busy_virt_us_per_op", "virt_us", "lower", "virtio", srcC, clkVirtual, 0, gateLayer, movesDesign},
	{"virtio.exec_self_share", "ratio", "lower", "virtio", srcR, clkWall, 0, gateLayer, movesDiag},
	{"app.exec_self_share", "ratio", "lower", "app", srcR, clkWall, 0, gateLayer, movesDiag + "; the system-call stub on the application thread"},

	// ninep (4)
	{"ninep.codec_ns", "ns", "lower", "ninep", srcT, clkWall, 0, gateLayer, movesFS},
	{"ninep.codec_allocs", "count", "lower", "ninep", srcT, clkHost, 0, gateLayer, "allocs_per_op on sqlite_insert and kv_heal"},
	{"ninep.server_write_ns_empty", "ns", "lower", "ninep", srcT, clkWall, 0, gateLayer, movesFS},
	{"ninep.server_write_ns_1mb", "ns", "lower", "ninep", srcT, clkWall, 0, gateLayer, movesFS + "; the working-set effect of a growing host file"},

	// lwip (3)
	{"lwip.segment_codec_ns", "ns", "lower", "lwip", srcT, clkWall, 0, gateLayer, movesNet},
	{"lwip.machine_rtt_ns", "ns", "lower", "lwip", srcT, clkWall, 0, gateLayer, movesNet},
	{"lwip.machine_rtt_allocs", "count", "lower", "lwip", srcT, clkHost, 0, gateLayer, "allocs_per_op on echo_rtt, kv_sharded, kv_heal"},

	// virtio (2)
	{"virtio.ring_rtt_ns", "ns", "lower", "virtio", srcT, clkWall, 0, gateLayer, movesHot},
	{"virtio.ring_rtt_allocs", "count", "lower", "virtio", srcT, clkHost, 0, gateLayer, "allocs_per_op on all four"},

	// host (3)
	{"host.p9_handled_per_op", "count", "lower", "host", srcC, clkVirtual, 0, gateLayer, movesFS},
	{"host.fsyncs_per_op", "count", "lower", "host", srcC, clkVirtual, 0, gateLayer, "virt_us_per_op on sqlite_insert and kv_heal (250 us each)"},
	{"host.fs_writes_per_op", "count", "lower", "host", srcC, clkVirtual, 0, gateLayer, movesFS},

	// trace (5)
	{"trace.begin_end_ns", "ns", "lower", "trace", srcT, clkWall, 0, gateLayer, "trace.overhead_ratio only: end-to-end runs have tracing off"},
	{"trace.begin_end_nil_ns", "ns", "lower", "trace", srcT, clkWall, 0, gateLayer, movesHot + "; the cost of the hooks with tracing off"},
	{"trace.events_per_op", "count", "lower", "trace", srcR, clkVirtual, 0, gateLayer, "trace.overhead_ratio"},
	{"trace.dropped", "count", "lower", "trace", srcR, clkVirtual, 0, gateLayer, "must stay 0 or the attribution is incomplete"},
	{"trace.overhead_ratio", "ratio", "lower", "trace", srcR, clkWall, 0, gateLayer, "untraced ops/s over traced ops/s; how far the R rows are from the untraced truth"},

	// attr (4)
	{"attr.exec_share", "ratio", "higher", "attr", srcR, clkWall, 0, gateLayer, movesDiag},
	{"attr.hop_share", "ratio", "lower", "attr", srcR, clkWall, 0, gateLayer, movesHot},
	{"attr.client_share", "ratio", "lower", "attr", srcR, clkWall, 0, gateLayer, movesDiag + "; the load generator's own cost"},
	{"attr.model_coverage", "ratio", "higher", "attr", srcR, clkWall, 0, gateLayer, "how much of cpu_us_per_op the C count x T cost products explain"},

	// client (3)
	{"client.wall_p50_us", "us", "lower", "client", srcE, clkWall, 0, gateLayer, movesDiag + "; too noisy to gate"},
	{"client.wall_p99_us", "us", "lower", "client", srcE, clkWall, 0, gateLayer, movesDiag + "; too noisy to gate"},
	{"client.openloop_late_p99_us", "virt_us", "lower", "client", srcE, clkVirtual, 0, gateLayer, "kv_heal only; how late the open-loop generator ran"},

	// proc (4)
	{"proc.sys_cpu_share", "ratio", "lower", "proc", srcE, clkHost, 0, gateLayer, "falls when dispatches are charged rather than executed"},
	{"proc.peak_rss_mb", "MiB", "lower", "proc", srcE, clkHost, 0, gateLayer, movesDiag},
	{"proc.gc_cycles", "count", "lower", "proc", srcE, clkHost, 0, gateLayer, "follows alloc_kb_per_op"},
	{"proc.gc_pause_ms", "ms", "lower", "proc", srcE, clkHost, 0, gateLayer, "follows alloc_kb_per_op"},
}

// ledgerIndex maps a metric name to its definition.
var ledgerIndex = func() map[string]metricDef {
	m := make(map[string]metricDef, len(ledger))
	for _, d := range ledger {
		m[d.Name] = d
	}
	return m
}()
