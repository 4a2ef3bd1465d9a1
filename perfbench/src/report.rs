//! Metric definitions, the naming rule, summary statistics and the
//! one-line JSON result.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]). `sim_ms` is simulated time, exact for a
    /// seed; `ms`, `s` and `ns` are host time.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// What an end-to-end metric measures; for a per-layer metric, the
    /// end-to-end metric and workload it should move.
    pub note: &'static str,
}

impl MetricDef {
    /// One human-readable output line for value `v`.
    pub fn line(&self, v: f64) -> String {
        let better = match self.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        format!(
            "{:<28} {v:>16.6} {:<7} {better:<6} {}",
            self.name, self.unit, self.note
        )
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// Metrics of a `--trace 0` run: what a user of the simulator sees.
pub const END_TO_END: &[MetricDef] = &[
    m("run_s", "s", Lower, "median host seconds per verified run"),
    m(
        "setup_s",
        "s",
        Lower,
        "median host seconds of the pre-event set-up calls",
    ),
    m(
        "peak_rss_mb",
        "MB",
        Lower,
        "VmHWM of a fresh process running one run",
    ),
    m(
        "allocs_per_run",
        "count",
        Lower,
        "heap allocation calls in one run",
    ),
    m(
        "alloc_mb_per_run",
        "MB",
        Lower,
        "heap bytes requested in one run",
    ),
    m(
        "sim_ms",
        "sim_ms",
        Lower,
        "simulated completion time of the run",
    ),
];

/// Metrics of a `--trace 1` run: one layer each, measured from outside.
pub const PER_LAYER: &[MetricDef] = &[
    m("algos.keygen_s", "s", Lower, "setup_s on sort_gige"),
    m(
        "algos.matrix_gen_s",
        "s",
        Lower,
        "setup_s on fft_aceii_faulted",
    ),
    m(
        "algos.bucket_sort_s",
        "s",
        Lower,
        "run_s on sort_gige; nothing on allreduce_fattree",
    ),
    m(
        "algos.count_sort_s",
        "s",
        Lower,
        "run_s on sort_gige; nothing on allreduce_fattree",
    ),
    m(
        "algos.sort_oracle_s",
        "s",
        Lower,
        "run_s on sort_gige; nothing on allreduce_fattree",
    ),
    m("algos.fft_rows_s", "s", Lower, "run_s on fft_aceii_faulted"),
    m(
        "algos.fft_oracle_s",
        "s",
        Lower,
        "run_s on fft_aceii_faulted",
    ),
    m(
        "algos.transpose_s",
        "s",
        Lower,
        "run_s on fft_aceii_faulted",
    ),
    m(
        "net.routing_s",
        "s",
        Lower,
        "setup_s on allreduce_fattree; zero on single-switch workloads",
    ),
    m("coll.plan_s", "s", Lower, "run_s on allreduce_fattree"),
    m("coll.oracle_s", "s", Lower, "run_s on allreduce_fattree"),
    m(
        "coll.msgs",
        "count",
        Lower,
        "explains run_s on allreduce_fattree",
    ),
    m(
        "coll.bytes",
        "B",
        Lower,
        "explains run_s on allreduce_fattree",
    ),
    m(
        "sim.event_ns",
        "ns",
        Lower,
        "run_s: most on allreduce_fattree, then fft_aceii_faulted, least on sort_gige",
    ),
    m(
        "sim.counter_ns",
        "ns",
        Lower,
        "run_s: most on allreduce_fattree, then fft_aceii_faulted, least on sort_gige",
    ),
    m(
        "proto.inic_codec_ns",
        "ns",
        Lower,
        "run_s on fft_aceii_faulted and allreduce_fattree",
    ),
    m(
        "proto.protocol_cpu_ms",
        "sim_ms",
        Lower,
        "sim_ms on sort_gige",
    ),
    m("host.interrupts", "count", Lower, "sim_ms on sort_gige"),
    m("net.switch_drops", "count", Lower, "sim_ms on sort_gige"),
    m(
        "proto.retransmits",
        "count",
        Lower,
        "sim_ms on fft_aceii_faulted",
    ),
    m(
        "core.degraded_nodes",
        "count",
        Lower,
        "sim_ms on fft_aceii_faulted",
    ),
    m(
        "core.resumed_from_phase",
        "phase",
        Higher,
        "sim_ms on fft_aceii_faulted (-1: no resume)",
    ),
    m(
        "core.sort.bucket1_ms",
        "sim_ms",
        Lower,
        "sim_ms on sort_gige",
    ),
    m("core.sort.comm_ms", "sim_ms", Lower, "sim_ms on sort_gige"),
    m(
        "core.sort.bucket2_ms",
        "sim_ms",
        Lower,
        "sim_ms on sort_gige",
    ),
    m("core.sort.count_ms", "sim_ms", Lower, "sim_ms on sort_gige"),
    m(
        "core.fft.compute_ms",
        "sim_ms",
        Lower,
        "sim_ms on fft_aceii_faulted",
    ),
    m(
        "core.fft.transpose_comm_ms",
        "sim_ms",
        Lower,
        "sim_ms on fft_aceii_faulted",
    ),
    m(
        "core.fft.transpose_host_ms",
        "sim_ms",
        Lower,
        "sim_ms on fft_aceii_faulted",
    ),
    m(
        "core.coll.comm_ms",
        "sim_ms",
        Lower,
        "sim_ms on allreduce_fattree",
    ),
    m(
        "core.coll.compute_ms",
        "sim_ms",
        Lower,
        "sim_ms on allreduce_fattree",
    ),
    m("core.execute_self_s", "s", Lower, "run_s on every workload"),
    m(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "nothing: traced against untraced run_s",
    ),
];

/// The naming rule for metrics and workloads: starts with a letter or
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The rule for units: 1 to 16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The definition of metric `name` in `defs`.
pub fn def(defs: &[MetricDef], name: &str) -> MetricDef {
    *defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("no metric named `{name}`"))
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The result of one invocation.
#[derive(Default)]
pub struct Outcome {
    /// Runs attempted (timed, counting, probe and executor runs).
    pub attempted: u64,
    /// Runs that hung, were unverified, or whose ledger did not match.
    pub failed: u64,
    /// `(name, unit, value)` for every reported metric, in order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// An outcome reporting `metrics`.
    pub fn new(attempted: u64, failed: u64, metrics: &[(MetricDef, f64)]) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: metrics
                .iter()
                .map(|(d, v)| (d.name.to_string(), d.unit, *v))
                .collect(),
        }
    }

    /// Add `other`'s runs and its metrics, named `<prefix>.<name>`.
    pub fn absorb(&mut self, prefix: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .map(|(name, unit, v)| (format!("{prefix}.{name}"), unit, v)),
        );
    }

    /// The one-line JSON object the benchmark ends its output with.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                assert!(valid_name(name) && valid_unit(unit), "bad metric {name}");
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_accepts_the_allowed_alphabet() {
        for ok in [
            "run_s",
            "core.sort.bucket1_ms",
            "sort_gige",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
    }

    #[test]
    fn name_rule_rejects_everything_else() {
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "p99/s",
            "µs",
            "a:b",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_rule() {
        for ok in ["s", "ms", "1/s", "%", "count", "sim_ms", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_defined_metric_obeys_the_rules_once() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_defined_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, defs.len(), "{section} entry count");
            for d in defs {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn json_line_shape() {
        let out = Outcome::new(3, 0, &[(END_TO_END[0], 0.5), (END_TO_END[5], 446.7)]);
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"sim_ms\": {\"value\": 446.7, \"unit\": \"sim_ms\"}}}"
        );
    }

    #[test]
    fn absorbed_outcomes_prefix_names_and_add_runs() {
        let mut all = Outcome::default();
        all.absorb("sort_gige", Outcome::new(3, 1, &[(END_TO_END[0], 0.5)]));
        all.absorb("fft", Outcome::new(2, 0, &[(END_TO_END[0], 0.8)]));
        assert_eq!((all.attempted, all.failed), (5, 1));
        let names: Vec<&str> = all.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["sort_gige.run_s", "fft.run_s"]);
        assert!(all.json().starts_with("{\"correct\": false"));
    }
}
