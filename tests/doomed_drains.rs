//! Drains that can never finish: a naive nW1R FIFO with fewer slots than
//! writers never accepts a packet (Fig. 5), so every scatter phase that
//! has to cross it stalls. With fast-forward on, the scheduler ends such
//! a drain at its stall guard in one step; the reported
//! `StallDiagnostic` must be exactly the one the per-cycle loop reaches,
//! on every execution path that drains through the scheduler.

use higraph::prelude::*;
use higraph::sim::selection;
use std::sync::Mutex;

/// The tests read the process-wide window-selection tallies, so they
/// must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn graph() -> Csr {
    higraph::graph::gen::erdos_renyi(128, 1024, 31, 151)
}

/// HiGraph with an undersized naive dataflow FIFO: 16 slots, 32 writers.
fn doomed_dataflow() -> AcceleratorConfig {
    let mut config = AcceleratorConfig::higraph();
    config.name = "HiGraph[df=naive16]".to_string();
    config.dataflow_network = NetworkKind::NaiveFifo;
    config.dataflow_buffer_per_channel = 16;
    config
}

/// Window selections made by `run`, across every thread.
fn selections<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = selection::snapshot();
    let out = run();
    let spent = selection::snapshot().since(&before);
    (out, spent.wheel_windows + spent.poll_windows)
}

/// Far below the stall guard (over 10,000 cycles here), which a
/// per-cycle drain would select a window for, one cycle at a time.
const MAX_SELECTIONS: u64 = 100;

#[test]
fn doomed_drains_stall_exactly_as_the_per_cycle_loop() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let prog = Bfs::from_source(0);
    let config = doomed_dataflow();
    let name = config.name.clone();

    let serial = |fast: bool| {
        let mut engine = Engine::new(config.clone(), &g);
        engine.set_fast_forward(fast);
        engine.run(&prog).expect_err("doomed design must stall")
    };
    let naive = serial(false);
    assert_eq!(naive.stall.cycles, naive.stall.limit, "{name}: {naive}");
    let (fast, spent) = selections(|| serial(true));
    assert_eq!(fast, naive, "{name}: serial engine");
    assert!(spent <= MAX_SELECTIONS, "{name}: {spent} selections");

    let controlled = |fast: bool| {
        let mut engine = Engine::new(config.clone(), &g);
        engine.set_fast_forward(fast);
        match engine.run_controlled(&prog, &RunControl::new()) {
            Err(diagnostic) => diagnostic,
            Ok(outcome) => panic!("{name}: controlled run did not stall: {outcome:?}"),
        }
    };
    let (fast, spent) = selections(|| controlled(true));
    assert_eq!(fast, controlled(false), "{name}: controlled run");
    assert_eq!(fast, naive, "{name}: controlled against plain");
    assert!(spent <= MAX_SELECTIONS, "{name}: {spent} selections");

    let sharded = |fast: bool| {
        let mut engine = ShardedEngine::new(config.clone(), ShardConfig::new(2), &g);
        engine.set_fast_forward(fast);
        engine.run(&prog).expect_err("doomed design must stall")
    };
    let (fast, spent) = selections(|| sharded(true));
    assert_eq!(fast, sharded(false), "{name}: sharded P = 2");
    assert_eq!(fast.num_chips, 2);
    assert!(spent <= 2 * MAX_SELECTIONS, "{name}: {spent} selections");
}

#[test]
fn a_buffer_as_wide_as_its_writers_is_never_doomed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let prog = Bfs::from_source(0);
    let mut config = doomed_dataflow();
    config.dataflow_buffer_per_channel = config.back_channels;
    let run = |fast: bool| {
        let mut engine = Engine::new(config.clone(), &g);
        engine.set_fast_forward(fast);
        engine
            .run(&prog)
            .expect("a FIFO with one slot per writer drains")
    };
    let (naive, fast) = (run(false), run(true));
    assert_eq!(fast.properties, naive.properties);
    assert_eq!(fast.metrics, naive.metrics);
}
