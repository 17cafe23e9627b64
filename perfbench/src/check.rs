//! Output checks. Every op the benchmark attempts is checked; an op whose
//! call fails or whose output is wrong counts as one failure and the run
//! goes on, so `error_rate` is failed ops over attempted ops.

/// Failure counts for one run.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

/// The checks of one op, collected before it is counted.
#[derive(Debug, Default)]
#[must_use = "an op's checks count only once recorded with Checker::record"]
pub struct OpCheck {
    problems: Vec<String>,
}

impl OpCheck {
    /// Notes a problem unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Notes a problem unless `actual == expected`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        actual: T,
        expected: T,
    ) {
        self.expect(actual == expected, || {
            format!("{what}: got {actual:?}, expected {expected:?}")
        });
    }

    /// Whether every check so far passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

impl Checker {
    /// Counts one attempted op, failed if `check` noted any problem.
    pub fn record(&mut self, op: &str, check: OpCheck) {
        self.attempted += 1;
        if !check.problems.is_empty() {
            self.failed += 1;
            self.messages
                .push(format!("{op}: {}", check.problems.join("; ")));
        }
    }

    /// Counts one attempted op that failed outright.
    pub fn fail(&mut self, op: &str, why: impl std::fmt::Display) {
        let mut check = OpCheck::default();
        check.expect(false, || why.to_string());
        self.record(op, check);
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// One line per failed op.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Compares a property array with the oracle's, naming the first
/// differing vertex.
pub fn expect_properties(check: &mut OpCheck, actual: &[u64], oracle: &[u64]) {
    check.expect(actual == oracle, || {
        match actual.iter().zip(oracle).position(|(a, o)| a != o) {
            Some(v) => format!(
                "property of vertex {v} is {}, the oracle says {}",
                actual[v], oracle[v]
            ),
            None => format!(
                "{} properties, the oracle has {}",
                actual.len(),
                oracle.len()
            ),
        }
    });
}

/// The repository's recorded baseline (`bench-baseline.json`, which
/// `repro --check` gates on), parsed once.
fn baseline() -> &'static std::collections::BTreeMap<String, f64> {
    static BASELINE: std::sync::OnceLock<std::collections::BTreeMap<String, f64>> =
        std::sync::OnceLock::new();
    BASELINE.get_or_init(|| {
        higraph_bench::report::parse_flat_json(include_str!("../../bench-baseline.json"))
            .expect("bench-baseline.json is flat JSON")
    })
}

/// A recorded baseline value, e.g. `shardfull.PR.p4.cycles`.
pub fn baseline_value(key: &str) -> Option<f64> {
    baseline().get(key).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bad_op_is_one_failure() {
        let mut checker = Checker::default();
        let mut good = OpCheck::default();
        expect_properties(&mut good, &[1, 2, 3], &[1, 2, 3]);
        checker.record("good", good);
        let mut bad = OpCheck::default();
        expect_properties(&mut bad, &[1, 9, 3], &[1, 2, 3]);
        bad.expect_eq("cycles", 5, 6);
        checker.record("bad", bad);
        checker.fail("stalled", "stall guard hit");
        assert_eq!((checker.attempted(), checker.failed()), (3, 2));
        assert!((checker.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(checker.messages()[0].contains("vertex 1"));
        assert!(checker.messages()[0].contains("cycles"));
    }

    #[test]
    fn the_baseline_holds_the_checked_keys() {
        assert_eq!(baseline_value("shardfull.PR.p4.cycles"), Some(110970.0));
        assert!(baseline_value("dse.anchor.MDP-160.cycles").is_some());
        assert_eq!(baseline_value("no.such.key"), None);
    }
}
