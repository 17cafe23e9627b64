//! `dse`: `dse::explore` with `DseSettings::smoke()`.
//!
//! The only workload made of many short single-chip candidate runs,
//! fanned out through `BatchRunner` / `CorePool::run_ordered` and scored
//! by the `model` cost functions. The same schedule drives the
//! workspace's slowest unit test.
//!
//! The candidate sampler keeps the smoke schedule's own seed for every
//! workload seed: the sampler seed decides which designs reach the
//! expensive final rung, and one explore took from 3 s to 42 s across
//! sampler seeds 1 to 5 on a 2-core host, so a seeded sampler would bury
//! any change to explore's speed in the spread between seeds.

use crate::check::{baseline_value, OpCheck};
use crate::{Bench, Size};
use higraph::prelude::Dataset;
use higraph_bench::dse::{explore, Fidelity, MAX_ANCHOR_FRONT_EXCESS};
use higraph_bench::DseSettings;

fn settings(size: Size) -> DseSettings {
    let mut settings = DseSettings::smoke();
    if size == Size::Tiny {
        settings = settings.with_budget(4);
        settings.refine_rounds = 1;
        settings.rungs = [32, 16]
            .map(|divisor| Fidelity {
                dataset: Dataset::Vote,
                divisor,
                pr_iters: 2,
            })
            .to_vec();
    }
    settings
}

/// An anchor's objectives, compared between passes.
type Anchors = Vec<(String, u64, f64, f64, f64)>;

pub(crate) fn run(bench: &mut Bench) {
    let settings = settings(bench.params.size);
    let scored_on_default_rungs = settings.rungs == Fidelity::default_rungs();

    // explore builds its rung graphs itself; set-up measures the same
    // builds, which are what a caller pays to prepare these inputs.
    const SETUPS: usize = 15;
    bench.setup(SETUPS, |t| {
        for rung in &settings.rungs {
            let (graph, _) = t.span("graph.build", 0, |_| rung.build());
            drop(graph);
        }
    });

    let mut first: Option<(usize, Anchors)> = None;
    let mut memo_hits = 0;
    let timed = bench.measure(
        1..=usize::MAX,
        |t, checker, pass, _| {
            let (outcome, _) = t.span("dse.explore", pass as u64 + 1, |_| explore(&settings));
            memo_hits = outcome.memo_hits;
            let mut check = OpCheck::default();
            let anchors: Anchors = outcome
                .anchors
                .iter()
                .map(|a| {
                    let o = &a.objectives;
                    (
                        a.label.clone(),
                        o.cycles,
                        o.time_ns,
                        o.area_mm2,
                        o.energy_mj,
                    )
                })
                .collect();
            check.expect(!anchors.is_empty(), || "no anchors scored".to_string());
            for (anchor, row) in outcome.anchors.iter().zip(&anchors) {
                check.expect(anchor.front_excess <= MAX_ANCHOR_FRONT_EXCESS, || {
                    format!(
                        "anchor {} front excess {} > {MAX_ANCHOR_FRONT_EXCESS}",
                        anchor.label, anchor.front_excess
                    )
                });
                if scored_on_default_rungs {
                    let (label, cycles, time_ns, area, energy) = row;
                    for (key, value) in [
                        ("cycles", *cycles as f64),
                        ("time_ns", *time_ns),
                        ("area_mm2", *area),
                        ("energy_mj", *energy),
                    ] {
                        let key = format!("dse.anchor.{label}.{key}");
                        let expected = baseline_value(&key);
                        check.expect(
                            expected.is_some_and(|e| (value - e).abs() <= 1e-9 * e.abs().max(1.0)),
                            || format!("{key} = {value}, the baseline says {expected:?}"),
                        );
                    }
                }
            }
            match &first {
                Some((points, a)) => {
                    check.expect_eq(
                        "points evaluated against pass 0",
                        outcome.points_evaluated,
                        *points,
                    );
                    check.expect_eq("anchors against pass 0", &anchors, a);
                }
                None => first = Some((outcome.points_evaluated, anchors)),
            }
            checker.record(&format!("pass {pass} explore"), check);
            outcome.points_evaluated as f64
        },
        |timed| {
            format!(
                "dse: {} explore(s) in {:.3} s, {} design points; points_per_s = {:.3} points/s",
                timed.passes,
                timed.wall_s,
                timed.work,
                timed.throughput()
            )
        },
    );

    let build_s = bench.span_total_s("graph.build") / SETUPS as f64;
    let points = first.as_ref().map_or(0, |(p, _)| *p);
    bench.lines.push(format!(
        "dse settings: seed {}, budget {}, eta {}, {} refinement rounds, {} rungs; \
         {points} points per explore, {memo_hits} from the memo",
        settings.seed,
        settings.budget,
        settings.eta,
        settings.refine_rounds,
        settings.rungs.len()
    ));
    let l = &mut bench.layers;
    l.insert("graph.build_s", build_s);
    l.insert("dse.explore_s", timed.per_pass_s("dse.explore"));
    l.insert("dse.points", points as f64);
    l.insert("dse.memo_hits", memo_hits as f64);
}
