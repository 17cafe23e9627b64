//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). A traced run also writes its spans as
//! Chrome trace-event JSON under `out/` in this package's directory.

use higraph_perfbench::{inputs, run, Params, Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <shard-p4|memstarved|serve-mix|dse> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Params, String> {
    let mut params = Params {
        workload: Workload::ShardP4,
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        inject_oracle_mismatch: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                params.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                params.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} must be a positive number"))?
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    params.workload = workload.ok_or("--workload is required")?;
    Ok(params)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&params);
    for line in &outcome.lines {
        println!("{line}");
    }
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            params.workload.name(),
            params.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!(
                "trace written to {} (open it in https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("could not write the trace to {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json_line(params.trace));
    ExitCode::SUCCESS
}
