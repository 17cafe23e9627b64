//! The repository benchmark: four workloads that drive the HiGraph
//! simulator through its public API, measure it from outside, and check
//! every output. `README.md` explains the workloads, the metrics and how
//! they relate; `src/main.rs` is the command line.

#![forbid(unsafe_code)]

pub mod check;
pub mod inputs;
pub mod metrics;
pub mod stats;
pub mod trace;

mod dse;
mod memstarved;
mod serve_mix;
mod shard_p4;

use check::Checker;
use higraph::pool::{CorePool, PoolSnapshot};
use higraph::prelude::Metrics;
use higraph::sim::selection::{self, SelectionCounts};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::time::Instant;
use trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six algorithms on four chips, clean and under a fault plan.
    ShardP4,
    /// Single-chip PageRank under a starved memory, across cache sizes.
    Memstarved,
    /// A closed-loop client driving the job service.
    ServeMix,
    /// Design-space exploration.
    Dse,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ShardP4,
        Workload::Memstarved,
        Workload::ServeMix,
        Workload::Dse,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShardP4 => "shard-p4",
            Workload::Memstarved => "memstarved",
            Workload::ServeMix => "serve-mix",
            Workload::Dse => "dse",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` keeps every
/// code path but shrinks the graphs so the smoke tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Input seed ([`inputs::DEFAULT_SEED`] reproduces `repro`).
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Keep spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Compare the first op checked against the oracle with a corrupted
    /// copy of the oracle's properties, so the run must count exactly one
    /// failed op (the failure-counting test). dse has no oracle check.
    pub inject_oracle_mismatch: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted and failed ops.
    pub checker: Checker,
    /// End-to-end metrics of the untraced timed phase.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines: context, sample counts, named metrics.
    pub lines: Vec<String>,
    /// Chrome trace-event JSON of the traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of this run's kind (per-layer when traced, end-to-end otherwise).
    pub fn json_line(&self, traced: bool) -> String {
        let (names, values) = reported(traced, &self.end_to_end, &self.layers);
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checker.failed() == 0,
            self.checker.attempted(),
            self.checker.failed()
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload.
pub fn run(params: &Params) -> Outcome {
    // The pool's resident workers start lazily; start them before any
    // timing so their spawn cost lands in no measurement.
    let pool = CorePool::global();
    let mut bench = Bench {
        params: params.clone(),
        tracer: Tracer::new(params.trace),
        checker: Checker::default(),
        end_to_end: BTreeMap::new(),
        layers: BTreeMap::new(),
        lines: vec![format!(
            "workload {} seed {} ({}), {} s, tracing {}; host: nproc {}, pool {} resident worker(s) + the calling thread",
            params.workload.name(),
            params.seed,
            match params.seed {
                inputs::DEFAULT_SEED => "default: repro's inputs",
                inputs::HELD_OUT_SEED => "held out: generated inputs no tuning used",
                _ => "generated inputs",
            },
            params.seconds,
            if params.trace { "on" } else { "off" },
            std::thread::available_parallelism().map_or(1, usize::from),
            pool.workers(),
        )],
    };
    match params.workload {
        Workload::ShardP4 => shard_p4::run(&mut bench),
        Workload::Memstarved => memstarved::run(&mut bench),
        Workload::ServeMix => serve_mix::run(&mut bench),
        Workload::Dse => dse::run(&mut bench),
    }
    bench.finish()
}

/// State shared by the workload runners.
pub(crate) struct Bench {
    pub params: Params,
    pub tracer: Tracer,
    pub checker: Checker,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

/// One timed phase: its passes, the work they did and the host counters
/// around them.
pub(crate) struct Timed {
    /// Wall time of the whole phase.
    pub wall_s: f64,
    /// Passes run.
    pub passes: usize,
    /// Work units done (cycles, jobs or design points).
    pub work: f64,
    /// Work units per second of each pass.
    pub pass_rates: Vec<f64>,
    /// Host latency of every op (see [`Bench::measure`]), ms.
    pub op_ms: Vec<f64>,
    /// Self time per span name inside the phase (traced phases only), ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Share of the phase's wall time covered by its op spans.
    pub coverage: f64,
}

impl Timed {
    /// Work units per second: the median over passes, so a pass slowed
    /// by other load on the host moves it less than a mean would.
    pub fn throughput(&self) -> f64 {
        stats::median(&self.pass_rates)
    }

    /// Self time of span `name`, seconds per pass.
    pub fn per_pass_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9 / self.passes.max(1) as f64
    }
}

impl Bench {
    /// Measures `pass` for about the run's seconds: passes repeat while
    /// another pass of the mean length so far still fits, within the
    /// `passes` range (whose start is at least 1). A traced run measures
    /// it twice — untraced, then traced — records the throughput gap as
    /// `trace.overhead`, and returns the traced phase; an untraced run
    /// measures it once.
    ///
    /// `pass(tracer, checker, pass_index, op_ms)` runs one pass and
    /// returns the work units it did. An op is what a client waits for:
    /// a pass that pushes op latencies to `op_ms` defines its own ops
    /// (serve-mix's jobs); otherwise each pass is one op.
    pub fn measure(
        &mut self,
        passes: RangeInclusive<usize>,
        mut pass: impl FnMut(&mut Tracer, &mut Checker, usize, &mut Vec<f64>) -> f64,
        describe: impl Fn(&Timed) -> String,
    ) -> Timed {
        let untraced = if self.params.trace {
            let mut quiet = Tracer::new(false);
            Some(self.timed_phase(&mut quiet, passes.clone(), &mut pass))
        } else {
            None
        };
        let mut tracer = std::mem::replace(&mut self.tracer, Tracer::new(false));
        let timed = self.timed_phase(&mut tracer, passes, &mut pass);
        self.tracer = tracer;
        match &untraced {
            Some(quiet) => {
                self.lines.push(format!("untraced: {}", describe(quiet)));
                self.lines.push(format!("traced:   {}", describe(&timed)));
                let overhead = quiet.throughput() / timed.throughput().max(1e-12) - 1.0;
                self.layers.insert("trace.overhead", overhead);
                self.layers.insert("trace.coverage", timed.coverage);
                self.lines.push(format!(
                    "tracing overhead {:+.2}% of untraced throughput; op spans cover {:.2}% of the traced phase",
                    100.0 * overhead,
                    100.0 * timed.coverage
                ));
            }
            None => self.lines.push(describe(&timed)),
        }
        let reported = untraced.as_ref().unwrap_or(&timed);
        let ops = stats::Summary::of(&reported.op_ms);
        self.end_to_end
            .insert("throughput_per_s", reported.throughput());
        self.end_to_end.insert("op_p50_ms", ops.p50);
        self.lines
            .push(format!("op latency {}", ops.describe("ms")));
        if reported.op_ms.len() <= 20 {
            let each: Vec<String> = reported.op_ms.iter().map(|ms| format!("{ms:.1}")).collect();
            self.lines
                .push(format!("op latencies, ms: {}", each.join(", ")));
        }
        timed
    }

    fn timed_phase(
        &mut self,
        tracer: &mut Tracer,
        passes: RangeInclusive<usize>,
        pass: &mut impl FnMut(&mut Tracer, &mut Checker, usize, &mut Vec<f64>) -> f64,
    ) -> Timed {
        let pool = CorePool::global();
        let pool_before = pool.snapshot();
        let selection_before = selection::snapshot();
        let seconds = self.params.seconds;
        let checker = &mut self.checker;
        let phase = tracer.spans().len();
        let ((passes, work, pass_rates, op_ms), wall) = tracer.span("phase.timed", 0, |t| {
            let start = Instant::now();
            let (mut work, mut pass_rates, mut pass_ms, mut op_ms) =
                (0.0, Vec::new(), Vec::new(), Vec::new());
            let another = |done: usize| {
                let elapsed = start.elapsed().as_secs_f64();
                done < *passes.start()
                    || (done < *passes.end()
                        && elapsed * (done + 1) as f64 / done as f64 <= seconds)
            };
            while another(pass_rates.len()) {
                let pass_start = Instant::now();
                let done = pass(t, checker, pass_rates.len(), &mut op_ms);
                let took = pass_start.elapsed().as_secs_f64();
                work += done;
                pass_rates.push(done / took.max(1e-9));
                pass_ms.push(took * 1e3);
            }
            if op_ms.is_empty() {
                op_ms = pass_ms;
            }
            (pass_rates.len(), work, pass_rates, op_ms)
        });
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let pool_delta = pool.snapshot().since(&pool_before);
        let selections = selection::snapshot().since(&selection_before);
        let (self_ns, coverage) = if tracer.enabled() {
            let self_ns = trace::self_time_by_name(tracer.spans(), phase);
            let phase_self = self_ns.get("phase.timed").copied().unwrap_or(0);
            let covered = 1.0 - phase_self as f64 / wall_ns.max(1) as f64;
            (self_ns, covered)
        } else {
            (BTreeMap::new(), 0.0)
        };
        let timed = Timed {
            wall_s: wall.as_secs_f64(),
            passes,
            work,
            pass_rates,
            op_ms,
            self_ns,
            coverage,
        };
        if tracer.enabled() {
            self.record_host_counters(&timed, pool_delta, wall_ns, selections);
        }
        timed
    }

    /// Pool and window-selection deltas around a timed phase, per pass.
    fn record_host_counters(
        &mut self,
        timed: &Timed,
        pool: PoolSnapshot,
        wall_ns: u64,
        selections: SelectionCounts,
    ) {
        let per_pass = |v: u64| v as f64 / timed.passes.max(1) as f64;
        let workers = CorePool::global().workers();
        let team = if pool.lease_requests == 0 {
            0.0
        } else {
            pool.lease_workers_granted as f64 / pool.lease_requests as f64
        };
        let l = &mut self.layers;
        l.insert("pool.lease_requests", per_pass(pool.lease_requests));
        l.insert("pool.team_size", team);
        l.insert("pool.tasks_executed", per_pass(pool.tasks_executed));
        l.insert("pool.tasks_stolen", per_pass(pool.tasks_stolen));
        l.insert("pool.tasks_inline", per_pass(pool.tasks_inline));
        l.insert("pool.occupancy", pool.occupancy(wall_ns, workers));
        l.insert(
            "sim.selection.wheel_windows",
            per_pass(selections.wheel_windows),
        );
        l.insert(
            "sim.selection.poll_windows",
            per_pass(selections.poll_windows),
        );
        self.lines.push(format!(
            "pool: {} resident worker(s); per pass {} lease(s) granting {team:.2} worker(s) each \
             (measured team size), {} task(s) ({} stolen, {} inline), occupancy {:.1}%; \
             window selections per pass: {} wheel, {} poll",
            workers,
            per_pass(pool.lease_requests),
            per_pass(pool.tasks_executed),
            per_pass(pool.tasks_stolen),
            per_pass(pool.tasks_inline),
            100.0 * pool.occupancy(wall_ns, workers),
            per_pass(selections.wheel_windows),
            per_pass(selections.poll_windows),
        ));
    }

    /// Runs `setup` `reps` times, each inside a `phase.setup` span, and
    /// records the median wall time as `setup_s`. Returns every rep's
    /// result (runners that need a fresh state per timed phase take one
    /// each).
    pub fn setup<T>(&mut self, reps: usize, mut setup: impl FnMut(&mut Tracer) -> T) -> Vec<T> {
        let mut times = Vec::with_capacity(reps);
        let mut out = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (value, took) = self.tracer.span("phase.setup", 0, &mut setup);
            times.push(took.as_secs_f64());
            out.push(value);
        }
        let median = stats::median(&times);
        self.end_to_end.insert("setup_s", median);
        self.lines.push(format!(
            "setup {median:.4} s (median of {reps}: {})",
            times
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out
    }

    /// Span self time summed over the whole run, seconds.
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.tracer
            .spans()
            .iter()
            .zip(trace::self_times(self.tracer.spans()))
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Records the simulated counters of a set of runs: summed counts,
    /// and rates over the sums.
    pub fn record_simulated(&mut self, runs: &[&Metrics]) {
        let sum = |f: &dyn Fn(&Metrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
        let edges = sum(&|m| m.edges_processed);
        let time_ns: f64 = runs.iter().map(|m| m.time_ns()).sum();
        let cache_hits = sum(&|m| m.memory.cache_hits);
        let cache_total = cache_hits + sum(&|m| m.memory.cache_misses);
        let row_hits = sum(&|m| m.memory.dram.row_hits);
        let row_total = row_hits + sum(&|m| m.memory.dram.row_misses + m.memory.dram.row_conflicts);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let l = &mut self.layers;
        l.insert("sim.cycles", sum(&|m| m.cycles));
        l.insert("sim.scatter_cycles", sum(&|m| m.scatter_cycles));
        l.insert("sim.apply_cycles", sum(&|m| m.apply_cycles));
        l.insert("sim.edges", edges);
        l.insert("sim.iterations", sum(&|m| u64::from(m.iterations)));
        l.insert("sim.gteps", ratio(edges, time_ns));
        l.insert(
            "accel.vpe_starvation_cycles",
            sum(&|m| m.vpe_starvation_cycles),
        );
        l.insert("accel.offset_conflicts", sum(&|m| m.offset_conflicts));
        l.insert("net.offset.rejected", sum(&|m| m.offset_net.rejected));
        l.insert("net.edge.rejected", sum(&|m| m.edge_net.rejected));
        l.insert("net.dataflow.rejected", sum(&|m| m.dataflow_net.rejected));
        l.insert(
            "net.dataflow.hol_blocked",
            sum(&|m| m.dataflow_net.hol_blocked),
        );
        l.insert("accel.cache.hit_rate", ratio(cache_hits, cache_total));
        l.insert("sim.dram.row_hit_rate", ratio(row_hits, row_total));
        l.insert("sim.dram.stall_cycles", sum(&|m| m.memory.stall_cycles));
        self.lines.push(format!(
            "simulated: {} cycles, {} edges, {:.3} GTEPS (model unvalidated against hardware)",
            sum(&|m| m.cycles),
            edges,
            ratio(edges, time_ns)
        ));
    }

    fn finish(self) -> Outcome {
        let rss = peak_rss_mb();
        let mut end_to_end = self.end_to_end;
        end_to_end.insert("peak_rss_mb", rss);
        let mut lines = self.lines;
        lines.push(format!(
            "ops: {} attempted, {} failed, error_rate {:.4}",
            self.checker.attempted(),
            self.checker.failed(),
            self.checker.error_rate()
        ));
        for message in self.checker.messages() {
            lines.push(format!("FAILED {message}"));
        }
        let traced = self.params.trace;
        let trace_json = traced.then(|| {
            self.tracer.chrome_json(&format!(
                "perfbench {} seed {}",
                self.params.workload.name(),
                self.params.seed
            ))
        });
        let (names, values) = reported(traced, &end_to_end, &self.layers);
        for (name, unit) in names {
            lines.push(format!(
                "metric {name} = {} {unit}",
                values.get(name).copied().unwrap_or(0.0)
            ));
        }
        Outcome {
            checker: self.checker,
            end_to_end,
            layers: self.layers,
            lines,
            trace_json,
        }
    }
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
fn reported<'a>(
    traced: bool,
    end_to_end: &'a BTreeMap<&'static str, f64>,
    layers: &'a BTreeMap<&'static str, f64>,
) -> (
    &'static [(&'static str, &'static str)],
    &'a BTreeMap<&'static str, f64>,
) {
    if traced {
        (&metrics::PER_LAYER, layers)
    } else {
        (&metrics::END_TO_END, end_to_end)
    }
}

/// The process's peak resident set (VmHWM), MiB; 0.0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
