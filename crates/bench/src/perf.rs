//! Machine-readable perf baselines.
//!
//! The micro bench emits its measurements as JSON (`BENCH_micro.json` at
//! the repo root) so the repo carries a per-layer perf trajectory instead
//! of numbers buried in CI logs; end-to-end performance is measured by
//! `perfbench/`. The writer and the (deliberately small) reader below are
//! hand-rolled: the workspace builds with zero external crates, and the
//! only JSON we ever parse is the JSON we ourselves wrote.

use std::fmt::Write as _;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Case name, e.g. `event_queue_schedule_pop_64`.
    pub name: String,
    /// Mean wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// Iterations timed.
    pub iters: u64,
    /// The pre-optimization measurement this run is compared against,
    /// when one was recorded.
    pub baseline_ns_per_op: Option<f64>,
}

/// A full bench-suite report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Suite name (`micro`).
    pub suite: String,
    /// `full`, `quick`, or `test` — how many iterations were run.
    pub mode: String,
    /// Per-case measurements, in execution order.
    pub benches: Vec<BenchResult>,
}

impl PerfReport {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"suite\": \"{}\",", self.suite);
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"iters\": {}",
                b.name, b.ns_per_op, b.iters
            );
            if let Some(base) = b.baseline_ns_per_op {
                let _ = write!(s, ", \"baseline_ns_per_op\": {base:.1}");
            }
            s.push('}');
            if i + 1 < self.benches.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a report previously produced by [`PerfReport::to_json`].
    ///
    /// This is not a general JSON parser: it understands exactly the
    /// subset the writer emits (string and number fields, no escapes,
    /// one bench object per line).
    pub fn parse(text: &str) -> Result<PerfReport, String> {
        let suite = take_string_field(text, "suite").ok_or("missing \"suite\"")?;
        let mode = take_string_field(text, "mode").ok_or("missing \"mode\"")?;
        let mut benches = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('{') || !line.contains("\"name\"") {
                continue;
            }
            let name =
                take_string_field(line, "name").ok_or_else(|| format!("bad line: {line}"))?;
            let ns_per_op = take_number_field(line, "ns_per_op")
                .ok_or_else(|| format!("missing ns_per_op: {line}"))?;
            let iters = take_number_field(line, "iters")
                .ok_or_else(|| format!("missing iters: {line}"))? as u64;
            let baseline_ns_per_op = take_number_field(line, "baseline_ns_per_op");
            benches.push(BenchResult {
                name,
                ns_per_op,
                iters,
                baseline_ns_per_op,
            });
        }
        Ok(PerfReport {
            suite,
            mode,
            benches,
        })
    }

    /// Looks up a case by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Compares this run against a checked-in report: returns one message
    /// per recorded case whose name starts with any of `prefixes` and that
    /// either is missing from this run or whose current ns/op exceeds
    /// `factor` times the recorded ns/op. An empty vector means the gate
    /// passes. Cases this run adds are ignored until they are recorded.
    pub fn regressions_vs(
        &self,
        recorded: &PerfReport,
        prefixes: &[&str],
        factor: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for rec in &recorded.benches {
            if !prefixes.iter().any(|p| rec.name.starts_with(p)) {
                continue;
            }
            let Some(b) = self.get(&rec.name) else {
                out.push(format!(
                    "{}: recorded at {:.1} ns/op but missing from this run",
                    rec.name, rec.ns_per_op
                ));
                continue;
            };
            if rec.ns_per_op > 0.0 && b.ns_per_op > rec.ns_per_op * factor {
                out.push(format!(
                    "{}: {:.1} ns/op is more than {factor}x the recorded {:.1} ns/op",
                    b.name, b.ns_per_op, rec.ns_per_op
                ));
            }
        }
        out
    }
}

fn take_string_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_string())
}

fn take_number_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            suite: "micro".into(),
            mode: "full".into(),
            benches: vec![
                BenchResult {
                    name: "event_queue_schedule_pop_64".into(),
                    ns_per_op: 1500.5,
                    iters: 2000,
                    baseline_ns_per_op: Some(2077.4),
                },
                BenchResult {
                    name: "xdr_encode_read_call".into(),
                    ns_per_op: 80.0,
                    iters: 200_000,
                    baseline_ns_per_op: None,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let parsed = PerfReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn regression_gate_fires_only_on_matching_prefixes() {
        let recorded = sample();
        let mut current = sample();
        current.benches[0].ns_per_op = 10_000.0; // 6.7x the recorded value
        current.benches[1].ns_per_op = 10_000.0; // huge, but not gated
        let v = current.regressions_vs(&recorded, &["event_queue", "nfsheur"], 3.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("event_queue_schedule_pop_64"));
        let ok = recorded.regressions_vs(&recorded, &["event_queue"], 3.0);
        assert!(ok.is_empty());
    }

    #[test]
    fn unknown_cases_are_ignored_by_the_gate() {
        let recorded = sample();
        let mut current = sample();
        current.benches.push(BenchResult {
            name: "event_queue_brand_new_case".into(),
            ns_per_op: 1e9,
            iters: 1,
            baseline_ns_per_op: None,
        });
        assert!(current
            .regressions_vs(&recorded, &["event_queue"], 3.0)
            .is_empty());
    }

    #[test]
    fn a_gated_case_missing_from_the_run_fails_the_gate() {
        let recorded = sample();
        let mut renamed = sample();
        renamed.benches[0].name = "event_queue_schedule_pop_64_renamed".into();
        let v = renamed.regressions_vs(&recorded, &["event_queue"], 3.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("event_queue_schedule_pop_64: "), "{v:?}");
        assert!(v[0].contains("missing from this run"), "{v:?}");
        // An ungated case may come and go freely.
        renamed.benches.truncate(1);
        let v = renamed.regressions_vs(&recorded, &["event_queue"], 3.0);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
