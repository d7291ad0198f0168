package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (bench_test.go checks that the two agree) and adds the
// direction and the regression bound, which only -compare needs.
type metricDef struct {
	name, unit string
}

// workloadNames are the five workloads, in the order a full run takes them.
var workloadNames = []string{"plan_cold", "plan_edit", "replay_tableII", "stream_handoff", "rx_live"}

// endToEnd are the metrics of the untraced run. Every one is defined on
// every workload; README.md gives the definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"observed_ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
	{"live_heap_mb", "MB"},
}

// dvbs2Heavy are the nine receiver tasks reported one by one, by slug and by
// index in Receiver.Tasks(); the remaining fourteen are summed as "other".
var dvbs2Heavy = []struct {
	slug string
	task int
}{
	{"radio_receive", 0}, {"sync_freq_coarse", 2}, {"matched_filter_1", 3}, {"matched_filter_2", 4},
	{"sync_timing", 5}, {"sync_freq_fine_lr", 11}, {"sync_freq_fine_pf", 12}, {"ldpc_decode", 17}, {"bch_decode", 18},
}

// perLayer are the metrics of the traced run. Each has one home workload,
// the one whose traced run measures it (README.md lists them); a traced run
// of another workload reports 0 for it, which for a share means "this layer
// did not run here" and for a probe "not measured here".
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{{"bench.trace_overhead_ratio", "ratio"}, {"bench.peak_rss_mb", "MB"}}
	for _, l := range layerNames[1:] {
		d = append(d, metricDef{"layer." + l + ".self_share", "ratio"})
	}
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	// plan_cold
	add("us", "chaingen.generate_us_p50")
	add("ns", "sched.maxpacking_ns_p50")
	add("count", "sched.probes_per_plan")
	add("ms", "herad.plan_ms_p50.n20", "herad.plan_ms_p50.n40", "herad.plan_ms_p50.n80", "herad.plan_ms_p50.n160",
		"herad.plan_ms_p50.k3", "herad.plan_ms_p50.n512_exact", "herad.plan_ms_p50.n512_eps05")
	add("ratio", "herad.general_over_fast", "herad.wavefront_speedup")
	add("count", "herad.dp_cells_per_plan", "herad.allocs_per_plan")
	add("us", "twocatac.plan_us_p50.n20", "twocatac.plan_us_p50.n40")
	add("count", "twocatac.nodes_per_plan")
	add("us", "fertac.plan_us_p50", "otac.plan_us_p50")
	add("ratio", "strategy.overhead_share", "strategy.batch_speedup")
	add("us", "desim.simulate_us_p50")
	add("1/s", "desim.sim_frames_per_s")
	add("ratio", "desim.period_err_max", "desim.sampled_over_plain")
	add("ns", "obs.metric_op_ns")
	add("ratio", "trace.traced_over_untraced")
	add("ms", "op_ms_p99.plan_cold")
	// plan_edit
	add("ns", "core.fingerprint_ns_p50")
	add("ms", "herad.newplanner_ms_p50", "herad.edit_ms_p50.head", "herad.edit_ms_p50.mid", "herad.edit_ms_p50.tail",
		"herad.edit_ms_p50.append", "herad.edit_ms_p50.remove")
	add("ratio", "herad.rows_refilled_share")
	add("count", "herad.allocs_per_edit")
	add("ns", "strategy.cache_hit_ns_p50")
	add("ratio", "strategy.cache_hit_share")
	add("us", "strategy.replanbatch_us_p50")
	add("ratio", "strategy.warm_share")
	add("ms", "op_ms_p99.plan_edit")
	// replay_tableII
	add("ratio", "achieved_over_planned.replay_tableII", "achieved_over_planned_min.replay_tableII")
	add("us", "streampu.new_us_p50", "streampu.settle_overshoot_us_p50")
	// stream_handoff
	add("1/s", "streampu.frames_per_s.s1", "streampu.frames_per_s.chainW", "streampu.frames_per_s.cap64", "streampu.frames_per_s.work10us")
	add("ns", "streampu.handoff_ns_per_boundary", "streampu.framepool_ns_per_op", "streampu.sampler_record_ns")
	add("ratio", "streampu.sinks_on_over_off")
	add("ns", "ring.spsc_ns_per_op", "ring.mpmc_ns_per_op", "ring.spsc_xthread_ns_per_op", "flight.record_ns")
	// rx_live
	add("ratio", "achieved_over_planned.rx_live", "speedup_vs_serial.rx_live",
		"streampu.bottleneck_busy_share", "streampu.mean_busy_share")
	add("ms", "streampu.frame_latency_ms_p99")
	for _, h := range dvbs2Heavy {
		add("us", "dvbs2.task_us_p50."+h.slug)
	}
	add("us", "dvbs2.task_us_p50.other", "dvbs2.frame_us_p50", "dvbs2.tx_encode_us_p50")
	add("ratio", "dvbs2.seq_share", "dvbs2.ber")
	return d
}
