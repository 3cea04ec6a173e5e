//! `perfbench`: the end-to-end benchmark of the `sumtab` session API.
//!
//! One command drives a seeded workload through the public session calls
//! (`query` for reads, `DurableSession::run_script` for writes), checks
//! every answer against the un-rewritten plan, and prints the end-to-end
//! metrics. A traced run (`--trace 1`) replays the same operations with
//! spans around each layer's public calls and prints per-layer metrics
//! instead. See `README.md` in this directory for the metric definitions.

// The one foreign call, `clock_gettime`, is allowed where it is made.
#![deny(unsafe_code)]

pub mod fixture;
pub mod oracle;
pub mod runner;
pub mod sys;
pub mod trace;
pub mod workload;

/// Refuse configurations whose numbers would not measure the release
/// build: fail points armed, or the verifier gates switched on.
pub fn check_measured_configuration() -> Result<(), String> {
    for var in ["SUMTAB_FAILPOINTS", "SUMTAB_VERIFY"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it to measure the release configuration"
            ));
        }
    }
    if sumtab::qgm::verify::runtime_checks_enabled() {
        return Err("verifier gates are on: build with --release".to_string());
    }
    if sumtab::failpoint::any_armed() {
        return Err("a fail point is armed".to_string());
    }
    Ok(())
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. `None` when a metric is not a finite number.
pub fn result_json(report: &runner::Report) -> Option<String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        if !m.value.is_finite() {
            return None;
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}
