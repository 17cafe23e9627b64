//! The benchmark's metric names and units. `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps the two in step).

/// End-to-end metrics, measured with tracing off, reported by every
/// workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run of every workload
/// (0 where the workload does not reach the layer): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("graph.build_s", "s"),
    ("vcpm.oracle_s", "s"),
    ("accel.engine.run_s", "s"),
    ("accel.engine.ns_per_cycle", "ns"),
    ("accel.sharded.new_s", "s"),
    ("accel.sharded.run_s", "s"),
    ("accel.sharded.ns_per_cycle", "ns"),
    ("accel.sharded.faulted_run_s", "s"),
    ("accel.sharded.faulted_ns_per_cycle", "ns"),
    ("accel.sharded.controlled_run_s", "s"),
    ("accel.sharded.chip_imbalance", "ratio"),
    ("accel.snapshot.park_s", "s"),
    ("accel.snapshot.resume_s", "s"),
    ("accel.snapshot.bytes", "bytes"),
    ("serve.handle_line_s", "s"),
    ("serve.job_hit_p50_ms", "ms"),
    ("serve.job_miss_p50_ms", "ms"),
    ("serve.job_resume_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.jobs", "count"),
    ("serve.memo_hit_share", "fraction"),
    ("serve.parked", "count"),
    ("serve.memo_evictions", "count"),
    ("dse.explore_s", "s"),
    ("dse.points", "count"),
    ("dse.memo_hits", "count"),
    ("pool.lease_requests", "count"),
    ("pool.team_size", "workers"),
    ("pool.tasks_executed", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.tasks_inline", "count"),
    ("pool.occupancy", "fraction"),
    ("sim.selection.wheel_windows", "count"),
    ("sim.selection.poll_windows", "count"),
    ("sim.cycles", "cycles"),
    ("sim.scatter_cycles", "cycles"),
    ("sim.apply_cycles", "cycles"),
    ("sim.edges", "count"),
    ("sim.iterations", "count"),
    ("sim.gteps", "GTEPS"),
    ("accel.vpe_starvation_cycles", "cycles"),
    ("accel.offset_conflicts", "count"),
    ("net.offset.rejected", "count"),
    ("net.edge.rejected", "count"),
    ("net.dataflow.rejected", "count"),
    ("net.dataflow.hol_blocked", "count"),
    ("sim.link.cross_chip_packets", "count"),
    ("sim.link.hol_blocked", "count"),
    ("accel.cache.hit_rate", "fraction"),
    ("sim.dram.row_hit_rate", "fraction"),
    ("sim.dram.stall_cycles", "cycles"),
    ("faults.overhead", "ratio"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}
