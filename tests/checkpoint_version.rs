//! Checkpoints carry a wire-format version in their header. Version 2
//! dropped the multi-chip event wheel from the `MCHP` layout, so a
//! version-1 checkpoint must be rejected — by both resume entry points,
//! with a precise error and without a panic. A serial run checkpoints in
//! the one-chip `SHRC` layout, so the retired serial `ENGC` layout is
//! rejected the same way.

use higraph::prelude::*;
use higraph::sim::snapshot::SNAPSHOT_VERSION;
use higraph::sim::{content_checksum, SnapWriter};

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

#[test]
fn retired_serial_layout_is_rejected() {
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 151);
    let config = AcceleratorConfig::higraph();
    let prog = Bfs::from_source(0);
    // The head of the retired serial layout: its tag, the identity
    // context, then the run variables (frontier and property arrays).
    let mut w = SnapWriter::new();
    w.tag(b"ENGC");
    w.u64(g.content_hash());
    w.u64(content_checksum(config.canonical_encoding().as_bytes()));
    w.usize(1);
    w.u32(0);
    let props = vec![INF; g.num_vertices() as usize];
    w.seq(props.iter());
    w.seq(props.iter());
    let bytes = w.finish();

    let mut engine = Engine::new(config, &g);
    match engine.resume_controlled(&prog, &RunControl::new(), &bytes) {
        Err(ControlError::Snapshot(err)) => {
            let text = err.to_string();
            assert!(
                text.contains("expected tag \"SHRC\"") && text.contains("ENGC"),
                "{text}"
            );
        }
        other => panic!("serial engine accepted the retired ENGC layout: {other:?}"),
    }
}
