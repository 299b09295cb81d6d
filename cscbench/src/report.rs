//! Operation accounting, the metric list, and the result line.

use std::fmt::Write as _;

/// Counts operations and the checks they failed.
#[derive(Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Records one operation; `why` describes a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }

    /// The first recorded failures.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The metrics as `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// The result object printed as the last line of standard output. A
/// non-finite value is written as `null` and makes the result incorrect.
pub fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    let mut body = String::new();
    let mut finite = true;
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            finite = false;
            "null".to_owned()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            crate::json::escape(name)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        finite && ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut ledger = Ledger::default();
        ledger.op(true, String::new);
        ledger.op(false, || "bad".into());
        let mut m = Metrics::default();
        m.put("setup_s", 0.9, "s");
        m.put("row_s.ci", 1.5, "s");
        let line = result_line(&ledger, &m);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}, \
             \"row_s.ci\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(ledger.notes(), ["bad"]);
        let mut nan = Metrics::default();
        nan.put("x", f64::NAN, "s");
        assert!(result_line(&Ledger::default(), &nan).starts_with("{\"correct\": false"));
    }
}
