//! Checkpoints carry a wire-format version in their header. Version 2
//! dropped the multi-chip event wheel from the `MCHP` layout, so a
//! version-1 checkpoint must be rejected — by both resume entry points,
//! with a precise error and without a panic.

use higraph::prelude::*;
use higraph::sim::snapshot::SNAPSHOT_VERSION;

/// Rewrites a checkpoint's header to claim format version 1 (the header
/// checksum covers only the payload, so the version field is the sole
/// difference the reader sees).
fn as_version_1(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    bytes
}

const EXPECTED: &str = "version 1 unsupported (this build reads 2)";

#[test]
fn version_1_checkpoints_are_rejected_by_both_engines() {
    assert_eq!(SNAPSHOT_VERSION, 2);
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 151);
    let prog = Bfs::from_source(0);
    let park_now = || {
        let control = RunControl::new();
        control.request_park();
        control
    };

    let mut engine = Engine::new(AcceleratorConfig::higraph(), &g);
    let ck = match engine.run_controlled(&prog, &park_now()) {
        Ok(RunOutcome::Parked(ck)) => ck,
        other => panic!("expected a parked serial run, got {other:?}"),
    };
    match engine.resume_controlled(&prog, &RunControl::new(), &as_version_1(ck.bytes)) {
        Err(ControlError::Snapshot(err)) => assert!(err.to_string().contains(EXPECTED), "{err}"),
        other => panic!("serial engine accepted a version-1 checkpoint: {other:?}"),
    }

    let mut sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g);
    let ck = match sharded.run_controlled(&prog, &park_now()) {
        Ok(ShardedOutcome::Parked(ck)) => ck,
        other => panic!("expected a parked sharded run, got {other:?}"),
    };
    match sharded.resume_controlled(&prog, &RunControl::new(), &as_version_1(ck.bytes)) {
        Err(ControlError::Snapshot(err)) => assert!(err.to_string().contains(EXPECTED), "{err}"),
        other => panic!("sharded engine accepted a version-1 checkpoint: {other:?}"),
    }
}
