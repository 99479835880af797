//! Operation accounting, metric collection and the result line.

use std::fmt::Write as _;

/// Attempted and failed operations. Every timed unit and every output
/// check is one operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Counts one operation that returned a result.
    pub fn record<T>(&mut self, res: Result<T, String>) -> Option<T> {
        match res {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Named metrics with their units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    /// On an invalid or repeated name: both are bugs in this benchmark.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name, value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A metric that is not a finite number is an error.
    pub fn result_line(&self, ops: Ops) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ops.failed == 0 && ops.attempted > 0,
            ops.attempted,
            ops.failed
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "speedup.eval_ns.0.37", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", "a\"b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_refused() {
        Metrics::default().push("events/s", 1.0, "1/s");
    }

    #[test]
    fn result_line_has_every_metric_and_refuses_non_finite() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        m.push("x.count", 3.0, "count");
        let ops = Ops {
            attempted: 4,
            failed: 0,
        };
        assert_eq!(
            m.result_line(ops).unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x.count\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        m.push("bad", f64::NAN, "s");
        assert!(m.result_line(ops).is_err());
    }
}
