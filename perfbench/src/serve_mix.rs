//! `serve-mix`: one closed-loop client with one job in flight, sending
//! the wire protocol's own `submit` / `run` / `resume` lines through
//! `ServeSession::handle_line`.
//!
//! Every served job takes the controlled, serially drained path and goes
//! through the memo and snapshot layers, which the other workloads
//! bypass: it is the latency view of the engine `shard-p4` measures for
//! throughput. The job mix is drawn from the workload seed:
//!
//! * design points: Table 2 datasets at divisors that keep a cache-miss
//!   job in the tens to hundreds of milliseconds, all six algorithms, one
//!   or four chips, the HiGraph configuration — 72 points, each submitted
//!   fresh exactly once, so every pass does the same simulation work;
//! * about a third of submits repeat an earlier design point, so the memo
//!   answers them;
//! * about one in ten repeats an earlier point with `budget_cycles` at
//!   half its cycles, so it parks into a checkpoint and is `resume`d.
//!
//! The session builds its graphs from the Table 2 stand-ins whatever the
//! seed (the protocol names datasets, not graphs); the seed drives the job
//! order and the repeats.

use crate::check::{expect_properties, OpCheck};
use crate::inputs::{Program, SplitMix64};
use crate::stats::{samples_above, Summary, MIN_SAMPLES_ABOVE};
use crate::trace::Tracer;
use crate::{with_program, Bench, Size};
use higraph::prelude::*;
use higraph_bench::report::{parse_flat_json_values, JsonValue};
use higraph_bench::{Algo, ServeSession};
use std::collections::BTreeMap;

/// The service's default PageRank iterations (submits leave it unset).
const PR_ITERS: u32 = 3;

/// Warmed sessions made in set-up; each timed pass uses one.
const SETUPS: usize = 5;

/// Most passes of a timed phase, so a traced run (two phases) never runs
/// out of warmed sessions.
const MAX_PASSES: usize = SETUPS / 2;

/// One design point: everything the memo key depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Point {
    dataset: Dataset,
    divisor: u32,
    algo_index: usize,
    chips: usize,
}

impl Point {
    fn algo(&self) -> Algo {
        Algo::ALL[self.algo_index]
    }

    fn submit_line(&self, id: &str, budget_cycles: Option<u64>) -> String {
        let mut line = format!(
            "{{\"op\": \"submit\", \"id\": \"{id}\", \"dataset\": \"{}\", \"divisor\": {}, \
             \"algo\": \"{}\", \"chips\": {}",
            self.dataset.abbrev(),
            self.divisor,
            self.algo().label(),
            self.chips
        );
        if let Some(budget) = budget_cycles {
            line.push_str(&format!(", \"budget_cycles\": {budget}"));
        }
        line.push('}');
        line
    }
}

/// How the mix meant a job to be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A design point not submitted before: a memo miss.
    Miss,
    /// A repeat: answered from the memo.
    Hit,
    /// A repeat with a half-run cycle budget: parks, then resumes.
    Resume,
}

/// A served result: the `result` event's numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    cycles: u64,
    gteps: f64,
}

fn datasets(size: Size) -> Vec<(Dataset, u32)> {
    match size {
        Size::Full => vec![
            (Dataset::Vote, 2),
            (Dataset::Epinions, 8),
            (Dataset::Slashdot, 16),
            (Dataset::Twitter, 16),
            (Dataset::Rmat14, 16),
            (Dataset::Rmat16, 64),
        ],
        Size::Tiny => vec![(Dataset::Vote, 32), (Dataset::Vote, 16)],
    }
}

/// Every design point, in the seeded order fresh submits draw them.
fn shuffled_points(size: Size, rng: &mut SplitMix64) -> Vec<Point> {
    let mut points = Vec::new();
    for (dataset, divisor) in datasets(size) {
        for algo_index in 0..Algo::ALL.len() {
            for chips in [1, 4] {
                points.push(Point {
                    dataset,
                    divisor,
                    algo_index,
                    chips,
                });
            }
        }
    }
    rng.shuffle(&mut points);
    points
}

fn event(line: &str) -> BTreeMap<String, JsonValue> {
    parse_flat_json_values(line).unwrap_or_default()
}

fn field_str<'a>(e: &'a BTreeMap<String, JsonValue>, key: &str) -> &'a str {
    e.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn field_num(e: &BTreeMap<String, JsonValue>, key: &str) -> f64 {
    e.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

/// One line through the session, inside a `serve.handle_line` span.
fn send(t: &mut Tracer, session: &mut ServeSession, op: u64, line: &str) -> (Vec<String>, f64) {
    let (out, took) = t.span("serve.handle_line", op, |_| session.handle_line(line));
    (out, took.as_secs_f64())
}

/// What one timed pass served, for the checks and per-layer metrics.
#[derive(Default)]
struct Log {
    /// Job latency by kind, ms.
    latency: BTreeMap<&'static str, Vec<f64>>,
    /// First served result per design point.
    first: BTreeMap<Point, Served>,
    /// Budgets of the points that parked.
    parked: BTreeMap<Point, u64>,
    parks: usize,
    hits: usize,
    jobs: usize,
    memo_evictions: f64,
}

pub(crate) fn run(bench: &mut Bench) {
    let size = bench.params.size;
    let mut rng = SplitMix64::new(bench.params.seed);
    let jobs = mix(size, &mut rng);

    // Set-up: a session warmed on every dataset. Each warm-up submit has
    // `budget_ms: 0`, so running it builds the graph and parks before the
    // first cycle; the cancel then drops it. Graph builds are thereby
    // kept out of job latency. Every timed pass takes a fresh session.
    let mut warmup_s = Vec::new();
    let mut sessions = bench.setup(SETUPS, |t| {
        let mut session = ServeSession::new();
        let mut build_s = 0.0;
        for (i, (dataset, divisor)) in datasets(size).into_iter().enumerate() {
            let id = format!("warm-{i}");
            send(
                t,
                &mut session,
                0,
                &format!(
                    "{{\"op\": \"submit\", \"id\": \"{id}\", \"dataset\": \"{}\", \"divisor\": {divisor}, \"budget_ms\": 0}}",
                    dataset.abbrev()
                ),
            );
            build_s += send(t, &mut session, 0, "{\"op\": \"run\"}").1;
            send(t, &mut session, 0, &format!("{{\"op\": \"cancel\", \"id\": \"{id}\"}}"));
        }
        warmup_s.push(build_s);
        session
    });

    let mut log = Log::default();
    let timed = bench.measure(
        1..=MAX_PASSES,
        |t, checker, pass, op_ms| {
            let Some(mut session) = sessions.pop() else {
                checker.fail("serve-mix", "no prepared session left");
                return 0.0;
            };
            if pass == 0 {
                log = Log::default();
            }
            serve(t, checker, &mut session, &jobs, &mut log, op_ms);
            jobs.len() as f64
        },
        |timed| {
            format!(
                "serve-mix: closed loop, 1 client, 1 job in flight: {} pass(es) of {} jobs in {:.3} s; jobs_per_s = {:.3} jobs/s",
                timed.passes,
                jobs.len(),
                timed.wall_s,
                timed.throughput()
            )
        },
    );

    let passes = timed.passes.max(1) as f64;
    let all: Vec<f64> = log.latency.values().flatten().copied().collect();
    let summary = Summary::of(&all);
    bench
        .lines
        .push(format!("job latency {}", summary.describe("ms")));
    let mut class_p50 = BTreeMap::new();
    for kind in ["hit", "miss", "resume"] {
        let s = Summary::of(log.latency.get(kind).map_or(&[][..], Vec::as_slice));
        bench
            .lines
            .push(format!("  {kind:<6} jobs: {}", s.describe("ms")));
        class_p50.insert(kind, s.p50);
    }
    let hit_share = log.hits as f64 / log.jobs.max(1) as f64;
    bench.lines.push(format!(
        "memo-hit share {hit_share:.4} ({} of {} jobs); {} job(s) parked and resumed",
        log.hits, log.jobs, log.parks
    ));
    let p90 = if samples_above(90, summary.n) >= MIN_SAMPLES_ABOVE {
        crate::stats::percentile(&all, 90).unwrap_or(0.0)
    } else {
        0.0
    };

    check_against_references(bench, &log);

    let handle_line_s = timed.per_pass_s("serve.handle_line");
    let build_s = crate::stats::median(&warmup_s);
    let l = &mut bench.layers;
    l.insert("graph.build_s", build_s);
    l.insert("serve.handle_line_s", handle_line_s);
    l.insert("serve.job_hit_p50_ms", class_p50["hit"]);
    l.insert("serve.job_miss_p50_ms", class_p50["miss"]);
    l.insert("serve.job_resume_p50_ms", class_p50["resume"]);
    l.insert("serve.job_p90_ms", p90);
    l.insert("serve.jobs", log.jobs as f64 / passes);
    l.insert("serve.memo_hit_share", hit_share);
    l.insert("serve.parked", log.parks as f64 / passes);
    l.insert("serve.memo_evictions", log.memo_evictions);
}

/// The seeded job list: every design point once as a fresh submit, plus
/// repeats of completed points — a third of all jobs memo hits, a tenth
/// budgeted resumes — in seeded order. The counts are fixed, so every
/// seed serves the same simulation work and the same hit share.
fn mix(size: Size, rng: &mut SplitMix64) -> Vec<(Kind, Point)> {
    let points = shuffled_points(size, rng);
    // misses make up 1 - 1/3 - 1/10 = 17/30 of the jobs
    let total = (points.len() * 30).div_ceil(17);
    let (hits, resumes) = (total / 3, total / 10);
    let mut kinds: Vec<Kind> = [(Kind::Hit, hits), (Kind::Resume, resumes)]
        .into_iter()
        .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
        .chain(std::iter::repeat_n(Kind::Miss, points.len() - 1))
        .collect();
    rng.shuffle(&mut kinds);
    // a repeat needs a completed point, so the first job is a miss
    kinds.insert(0, Kind::Miss);
    let mut fresh = points.into_iter();
    let mut completed: Vec<Point> = Vec::new();
    kinds
        .into_iter()
        .map(|kind| {
            let point = if kind == Kind::Miss {
                let point = fresh.next().expect("one miss per design point");
                completed.push(point);
                point
            } else {
                completed[rng.below(completed.len())]
            };
            (kind, point)
        })
        .collect()
}

/// Runs `jobs` through `session`, one at a time, adding to `log`.
fn serve(
    t: &mut Tracer,
    checker: &mut crate::check::Checker,
    session: &mut ServeSession,
    jobs: &[(Kind, Point)],
    log: &mut Log,
    op_ms: &mut Vec<f64>,
) {
    for (j, &(kind, point)) in jobs.iter().enumerate() {
        let op = j as u64 + 1;
        let budget = match kind {
            Kind::Resume => log.first.get(&point).map(|s| (s.cycles / 2).max(1)),
            _ => None,
        };
        let id = format!("j{j}");
        let mut check = OpCheck::default();
        let mut latency = 0.0;
        let (out, s) = send(t, session, op, &point.submit_line(&id, budget));
        latency += s;
        check.expect(
            out.iter()
                .any(|l| field_str(&event(l), "event") == "queued"),
            || format!("submit not queued: {out:?}"),
        );
        let (mut out, s) = send(t, session, op, "{\"op\": \"run\"}");
        latency += s;
        let mut parked = false;
        if out
            .iter()
            .any(|l| field_str(&event(l), "event") == "parked")
        {
            parked = true;
            log.parks += 1;
            if let Some(b) = budget {
                log.parked.insert(point, b);
            }
            let (resumed, s) = send(
                t,
                session,
                op,
                &format!("{{\"op\": \"resume\", \"id\": \"{id}\"}}"),
            );
            latency += s;
            check.expect(
                resumed
                    .iter()
                    .any(|l| field_str(&event(l), "event") == "resuming"),
                || format!("resume refused: {resumed:?}"),
            );
            let (again, s) = send(t, session, op, "{\"op\": \"run\"}");
            latency += s;
            out = again;
        }
        op_ms.push(latency * 1e3);
        log.jobs += 1;
        let result = out
            .iter()
            .map(|l| event(l))
            .find(|e| field_str(e, "event") == "result" && field_str(e, "id") == id);
        let Some(result) = result else {
            check.expect(false, || format!("no result event: {out:?}"));
            checker.record(&format!("job {id}"), check);
            continue;
        };
        check.expect_eq("status", field_str(&result, "status"), "ok");
        let memo_hit = field_num(&result, "memo_hit") == 1.0;
        let served = Served {
            cycles: field_num(&result, "cycles") as u64,
            gteps: field_num(&result, "gteps"),
        };
        check.expect_eq("memo_hit", memo_hit, kind == Kind::Hit);
        let class = match kind {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Resume => "resume",
        };
        if kind == Kind::Resume && !parked {
            check.expect(false, || format!("budget {budget:?} did not park the job"));
        }
        log.hits += usize::from(memo_hit);
        log.latency.entry(class).or_default().push(latency * 1e3);
        match log.first.get(&point) {
            Some(first) => {
                check.expect_eq("result against the point's first result", served, *first)
            }
            None => {
                log.first.insert(point, served);
            }
        }
        checker.record(&format!("job {id} ({class})"), check);
    }
    let stats = session.handle_line("{\"op\": \"stats\"}");
    log.memo_evictions = stats
        .first()
        .map(|l| field_num(&event(l), "memo_evictions"))
        .unwrap_or(0.0);
}

/// Outside the timed phase: every served design point against the
/// benchmark's own uninterrupted `run_controlled` of it (properties
/// against the oracle too), and every parked point's park and resume
/// replayed through `run_controlled` / `resume_controlled`.
fn check_against_references(bench: &mut Bench, log: &Log) {
    let mut graphs: BTreeMap<(Dataset, u32), Csr> = BTreeMap::new();
    let mut oracles: BTreeMap<(Dataset, u32, usize), Vec<u64>> = BTreeMap::new();
    let (mut new_s, mut run_s, mut park_s, mut resume_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    let mut inject = bench.params.inject_oracle_mismatch;
    let ((), _) = bench.tracer.span("phase.check", 0, |t| {
        for (point, served) in &log.first {
            let graph = graphs
                .entry((point.dataset, point.divisor))
                .or_insert_with(|| t.span("graph.build", 0, |_| point.dataset.build_scaled(point.divisor)).0);
            let program = Program::new(point.algo(), graph, PR_ITERS);
            let oracle = oracles
                .entry((point.dataset, point.divisor, point.algo_index))
                .or_insert_with(|| t.span("vcpm.execute", 0, |_| program.oracle(graph)).0);
            let op = format!("reference {point:?}");
            let (mut engine, took) = t.span("accel.sharded.new", 0, |_| {
                ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(point.chips), graph)
            });
            new_s.push(took.as_secs_f64());
            let (outcome, took) = t.span("accel.sharded.controlled_run", 0, |_| {
                with_program!(&program, p => engine.run_controlled(p, &RunControl::new()))
            });
            run_s.push(took.as_secs_f64());
            let reference = match outcome {
                Ok(ShardedOutcome::Done(r)) => r,
                other => {
                    bench.checker.fail(&op, format!("uninterrupted run ended {other:?}"));
                    continue;
                }
            };
            let mut check = OpCheck::default();
            if std::mem::take(&mut inject) {
                let mut wrong = oracle.clone();
                wrong[0] ^= 1;
                expect_properties(&mut check, &reference.properties, &wrong);
            } else {
                expect_properties(&mut check, &reference.properties, oracle);
            }
            let direct = Served {
                cycles: reference.metrics.cycles,
                gteps: reference.metrics.gteps(),
            };
            check.expect_eq("served cycles against the uninterrupted run", served.cycles, direct.cycles);
            check.expect(
                (served.gteps - direct.gteps).abs() <= 1e-9 * direct.gteps.abs().max(1.0),
                || format!("served GTEPS {} against the uninterrupted {}", served.gteps, direct.gteps),
            );
            if let Some(&budget) = log.parked.get(point) {
                let control = RunControl::new();
                control.set_budget_cycles(Some(budget));
                let (parked, took) = t.span("accel.snapshot.park", 0, |_| {
                    with_program!(&program, p => engine.run_controlled(p, &control))
                });
                park_s.push(took.as_secs_f64());
                match parked {
                    Ok(ShardedOutcome::Parked(ck)) => {
                        bytes.push(ck.bytes.len() as f64);
                        let (resumed, took) = t.span("accel.snapshot.resume", 0, |_| {
                            with_program!(&program, p => engine.resume_controlled(p, &RunControl::new(), &ck.bytes))
                        });
                        resume_s.push(took.as_secs_f64());
                        match resumed {
                            Ok(ShardedOutcome::Done(r)) => {
                                expect_properties(&mut check, &r.properties, oracle);
                                check.expect_eq("resumed metrics", &r.metrics, &reference.metrics);
                            }
                            other => check.expect(false, || format!("resume ended {other:?}")),
                        }
                    }
                    other => check.expect(false, || format!("budget {budget} did not park: {other:?}")),
                }
            }
            bench.checker.record(&op, check);
        }
    });
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    bench.lines.push(format!(
        "check: {} design points re-run uninterrupted, {} park/resume replays, mean checkpoint {:.0} bytes",
        run_s.len(),
        park_s.len(),
        mean(&bytes)
    ));
    let oracle_s = bench.span_total_s("vcpm.execute");
    let l = &mut bench.layers;
    l.insert("vcpm.oracle_s", oracle_s);
    l.insert("accel.sharded.new_s", mean(&new_s));
    l.insert("accel.sharded.controlled_run_s", mean(&run_s));
    l.insert("accel.snapshot.park_s", mean(&park_s));
    l.insert("accel.snapshot.resume_s", mean(&resume_s));
    l.insert("accel.snapshot.bytes", mean(&bytes));
}
