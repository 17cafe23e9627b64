//! Tiny-size runs of every workload, the failure count of an injected
//! oracle mismatch, and `BENCHMARK.json` against the metric registry.

use higraph_perfbench::{metrics, run, Params, Size, Workload};

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        inject_oracle_mismatch: false,
    }
}

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, false));
        let name = workload.name();
        assert!(outcome.checker.attempted() > 0, "{name}");
        assert_eq!(
            outcome.checker.failed(),
            0,
            "{name}: {:?}",
            outcome.checker.messages()
        );
        for (metric, _) in metrics::END_TO_END {
            let value = outcome.end_to_end.get(metric).copied().unwrap_or(0.0);
            assert!(
                value > 0.0 && value.is_finite(),
                "{name} {metric} = {value}"
            );
        }
        let line = outcome.json_line(false);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(outcome.trace_json.is_none());
    }
}

#[test]
fn traced_runs_report_every_layer_and_cover_the_timed_phase() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, true));
        let name = workload.name();
        assert_eq!(
            outcome.checker.failed(),
            0,
            "{name}: {:?}",
            outcome.checker.messages()
        );
        let coverage = outcome.layers["trace.coverage"];
        assert!(coverage >= 0.95, "{name}: spans cover {coverage}");
        let line = outcome.json_line(true);
        for (metric, unit) in metrics::PER_LAYER {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")) && line.contains(unit),
                "{name} lacks {metric}"
            );
        }
        let trace = outcome.trace_json.expect("a traced run keeps its spans");
        assert!(trace.contains("\"name\": \"phase.timed\""), "{name}");
    }
}

#[test]
fn one_injected_oracle_mismatch_is_one_failed_op() {
    // dse checks against recorded anchors, not the oracle
    for workload in [Workload::ShardP4, Workload::Memstarved, Workload::ServeMix] {
        let mut params = tiny(workload, false);
        params.inject_oracle_mismatch = true;
        let outcome = run(&params);
        assert_eq!(
            outcome.checker.failed(),
            1,
            "{}: {:?}",
            workload.name(),
            outcome.checker.messages()
        );
        assert!(outcome.checker.attempted() > 1);
        assert!(outcome
            .json_line(false)
            .starts_with("{\"correct\": false, "));
    }
}

#[test]
fn benchmark_json_lists_the_registered_metrics_and_workloads() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    for (metric, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("\"name\": \"{metric}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {metric} [{unit}]"
        );
    }
    let names = text.matches("\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + metrics::END_TO_END.len() + metrics::PER_LAYER.len()
    );
}
