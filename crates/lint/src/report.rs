//! Report assembly and rendering (text and `busarb-lint/1` JSON).

use serde::Value;

use crate::checks::{Finding, PanicSite, CHECKS};

/// The format tag of the JSON report.
pub const REPORT_FORMAT: &str = "busarb-lint/1";

/// A full engine run's output.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings not covered by the baseline (these fail the lint).
    pub open: Vec<Finding>,
    /// Findings covered by the baseline.
    pub suppressed: Vec<Finding>,
    /// Inventory of every panic site reachable from the mono runner.
    pub panic_surface: Vec<PanicSite>,
    /// Scanned-workspace statistics.
    pub stats: Stats,
}

/// Scan statistics for the report header.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Files scanned.
    pub files: usize,
    /// Functions extracted.
    pub functions: usize,
    /// Functions reachable from the hot roots.
    pub hot_reachable: usize,
    /// Functions reachable from the runner roots.
    pub runner_reachable: usize,
}

impl Report {
    /// Whether the run is clean (no unsuppressed findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.open.is_empty()
    }

    /// Renders the human-readable text form.
    #[must_use]
    pub fn to_text(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for f in &self.open {
            let _ = writeln!(out, "busarb-lint: {f}");
        }
        let _ = writeln!(
            out,
            "busarb-lint: {} file(s), {} function(s), {} hot-reachable, {} runner-reachable; {} finding(s) open, {} baselined, {} panic site(s) cataloged",
            self.stats.files,
            self.stats.functions,
            self.stats.hot_reachable,
            self.stats.runner_reachable,
            self.open.len(),
            self.suppressed.len(),
            self.panic_surface.len(),
        );
        out
    }

    /// Renders the `busarb-lint/1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let finding_value = |f: &Finding, baselined: bool| {
            Value::Object(vec![
                ("check".into(), Value::Str(f.check.to_string())),
                ("file".into(), Value::Str(f.file.clone())),
                ("line".into(), Value::UInt(u64::from(f.line))),
                ("symbol".into(), Value::Str(f.symbol.clone())),
                ("message".into(), Value::Str(f.message.clone())),
                ("baselined".into(), Value::Bool(baselined)),
            ])
        };
        let checks = CHECKS
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("id".into(), Value::Str(c.id.to_string())),
                    ("family".into(), Value::Str(c.family.to_string())),
                    ("description".into(), Value::Str(c.description.to_string())),
                ])
            })
            .collect();
        let findings = self
            .open
            .iter()
            .map(|f| finding_value(f, false))
            .chain(self.suppressed.iter().map(|f| finding_value(f, true)))
            .collect();
        let panic_surface = self
            .panic_surface
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("file".into(), Value::Str(s.file.clone())),
                    ("line".into(), Value::UInt(u64::from(s.line))),
                    ("function".into(), Value::Str(s.function.clone())),
                    ("construct".into(), Value::Str(s.construct.clone())),
                ])
            })
            .collect();
        let summary = Value::Object(vec![
            ("files".into(), Value::UInt(self.stats.files as u64)),
            ("functions".into(), Value::UInt(self.stats.functions as u64)),
            (
                "hot_reachable".into(),
                Value::UInt(self.stats.hot_reachable as u64),
            ),
            (
                "runner_reachable".into(),
                Value::UInt(self.stats.runner_reachable as u64),
            ),
            ("open".into(), Value::UInt(self.open.len() as u64)),
            (
                "baselined".into(),
                Value::UInt(self.suppressed.len() as u64),
            ),
            (
                "panic_sites".into(),
                Value::UInt(self.panic_surface.len() as u64),
            ),
        ]);
        let doc = Value::Object(vec![
            ("format".into(), Value::Str(REPORT_FORMAT.to_string())),
            ("checks".into(), Value::Array(checks)),
            ("findings".into(), Value::Array(findings)),
            ("panic_surface".into(), Value::Array(panic_surface)),
            ("summary".into(), summary),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_shim_parser() {
        let report = Report {
            open: vec![Finding {
                check: "hot-alloc",
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                symbol: "settle".to_string(),
                message: "`Vec::new` in `settle`".to_string(),
            }],
            suppressed: vec![],
            panic_surface: vec![PanicSite {
                file: "crates/x/src/lib.rs".to_string(),
                line: 9,
                function: "Q::schedule".to_string(),
                construct: "assert!".to_string(),
            }],
            stats: Stats {
                files: 2,
                functions: 5,
                hot_reachable: 3,
                runner_reachable: 4,
            },
        };
        let doc = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("format").and_then(serde::Value::as_str),
            Some(REPORT_FORMAT)
        );
        let findings = doc
            .get("findings")
            .and_then(serde::Value::as_array)
            .expect("findings");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("check").and_then(serde::Value::as_str),
            Some("hot-alloc")
        );
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("panic_sites"))
                .and_then(serde::Value::as_u64),
            Some(1)
        );
        assert!(!report.is_clean());
    }
}
