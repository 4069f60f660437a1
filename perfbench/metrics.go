package main

// metricDef names a metric and its unit as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the host-time metrics of an untraced run (--trace 0). Every
// workload reports all of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mips", "MIPS"},
	{"items_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"asm.assemble_ms", "ms"},
	{"asm.alloc_kb", "KB"},
	{"cosim.generate_ms", "ms"},
	{"cosim.setup_ms", "ms"},
	{"cosim.setup_alloc_kb", "KB"},
	{"cosim.lockstep_ms", "ms"},
	{"cosim.finish_ms", "ms"},
	{"cosim.check_ms", "ms"},
	{"cosim.commits_per_seed", "count"},
	{"core.ns_per_cycle", "ns"},
	{"core.alloc_kb_per_run", "KB"},
	{"core.predecode_hit_ratio", "ratio"},
	{"core.superblock_share", "ratio"},
	{"core.head_stall_load_frac", "ratio"},
	{"core.cycles", "count"},
	{"core.retired", "count"},
	{"core.solo_ms", "ms"},
	{"coherence.l1d_miss_ratio", "ratio"},
	{"coherence.l2_miss_ratio", "ratio"},
	{"coherence.l2_requests", "count"},
	{"prefetch.l1_issued", "count"},
	{"prefetch.l2_issued", "count"},
	{"emu.solo_ms", "ms"},
	{"inject.seed_ms", "ms"},
	{"inject.runs_per_seed", "count"},
	{"campaign.lease_requests", "count"},
	{"campaign.heartbeat_requests", "count"},
	{"campaign.complete_requests", "count"},
	{"campaign.http_ms_p50", "ms"},
	{"campaign.http_failed", "count"},
	{"campaign.fenced_409", "count"},
	{"campaign.lease_wait_ms", "ms"},
	{"campaign.journal_bytes_per_item", "B"},
	{"campaign.service_ms_per_item", "ms"},
	{"trace.overhead_pct", "%"},
	{"share.asm_pct", "%"},
	{"share.cosim_pct", "%"},
	{"share.core_pct", "%"},
	{"share.emu_pct", "%"},
	{"share.inject_pct", "%"},
	{"share.campaign_pct", "%"},
	{"share.http_pct", "%"},
	{"share.handler_pct", "%"},
	{"share.bench_pct", "%"},
}
