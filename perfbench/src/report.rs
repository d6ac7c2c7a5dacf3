//! The metric vocabulary and the run report.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a self-test
//! keeps them in step). Every metric carries the clock it was read from:
//! `wall` (monotonic wall time), `cpu` (per-thread CPU time reported by the
//! executor), `count` (an exact tally), or `virtual` (a modelled quantity
//! such as simulated dollars or the ingest pipeline's virtual clock, never a
//! measurement of this host). Numbers the program reports about itself
//! (Luna's operator traces, the executor's worker shards) are also marked
//! `program-reported`; every other number is measured from outside.

use crate::trace::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub clock: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        clock,
    }
}

/// Clock labels of numbers the program reports about itself.
const WALL_PROGRAM: &str = "wall, program-reported";
const CPU_PROGRAM: &str = "cpu, program-reported";
const COUNT_PROGRAM: &str = "count, program-reported";

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "lower", "wall"),
    spec("ops_per_s", "1/s", "higher", "wall"),
    spec("op_p50_ms", "ms", "lower", "wall"),
    spec("op_p99_ms", "ms", "lower", "wall"),
    spec("peak_rss_mb", "MB", "lower", "count"),
    spec("correct_ratio", "ratio", "higher", "count"),
];

/// Printed by every traced run (`--trace 1`). A workload that bypasses a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Spec] = &[
    // ask: Luna's public steps, run on the same question as the ask.
    spec("luna.plan.ms", "ms", "lower", "wall"),
    spec("luna.optimize.ms", "ms", "lower", "wall"),
    spec("luna.analyze.ms", "ms", "lower", "wall"),
    spec("luna.execute.ms", "ms", "lower", "wall"),
    spec("luna.plan.llm_calls", "count", "lower", "count"),
    // ask: operator wall times reported by the program (LunaResult::traces).
    spec("luna.exec.queryDatabase.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.basicFilter.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.rangeFilter.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.llmFilter.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.llmExtract.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.count.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.aggregate.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.sort.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.topK.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.join.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.math.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.graphExpand.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.summarizeData.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.llmGenerate.ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.exec.rows_in", "count", "lower", COUNT_PROGRAM),
    spec("luna.exec.unattributed_ms", "ms", "lower", WALL_PROGRAM),
    spec("luna.ask.overhead_ms.first_tenth", "ms", "lower", "wall"),
    spec("luna.ask.overhead_ms.last_tenth", "ms", "lower", "wall"),
    spec("aryn_telemetry.spans_held", "count", "lower", "count"),
    // ask and etl: model work per op (usage-stats deltas).
    spec("aryn_llm.calls_per_op", "count", "lower", "count"),
    spec("aryn_llm.usd_per_op", "usd.virtual", "lower", "virtual"),
    // etl: stages split by collecting between public DocSet stages.
    spec("aryn_partitioner.partition.ms", "ms", "lower", "wall"),
    spec("sycamore.extract.ms", "ms", "lower", "wall"),
    spec("sycamore.extract.self_ms", "ms", "lower", "wall"),
    spec("aryn_llm.model.ms", "ms", "lower", "wall"),
    spec("aryn_llm.model.calls", "count", "lower", "count"),
    spec("aryn_llm.retry_ratio", "ratio", "lower", "count"),
    spec("sycamore.write_store.ms", "ms", "lower", "wall"),
    spec("sycamore.exec.busy_share", "ratio", "higher", CPU_PROGRAM),
    spec("sycamore.exec.steals", "count", "lower", COUNT_PROGRAM),
    spec("sycamore.exec.critical_path_ms", "ms", "lower", CPU_PROGRAM),
    // etl and stream: the embedder probe.
    spec("aryn_llm.embed.ms", "ms", "lower", "wall"),
    // stream: the write path.
    spec("aryn_core.vfs.write_ms", "ms", "lower", "wall"),
    spec("aryn_core.vfs.syncs", "count", "lower", "count"),
    spec("aryn_core.vfs.bytes_written", "bytes", "lower", "count"),
    spec("sycamore.ingest.index_ms", "ms", "lower", "wall"),
    spec(
        "sycamore.ingest.lag_p99_ms",
        "ms.virtual",
        "lower",
        "virtual",
    ),
    spec("aryn_index.seals", "count", "lower", "count"),
    spec("aryn_index.compactions", "count", "lower", "count"),
    spec("aryn_index.compaction_stall_ms", "ms", "lower", "wall"),
    // stream: reads during ingest.
    spec("aryn_index.keyword_search.ms", "ms", "lower", "wall"),
    spec("aryn_index.vector_search.ms", "ms", "lower", "wall"),
    spec("aryn_index.sealed_shards", "count", "lower", "count"),
    // stream: recovery of the crash image.
    spec("aryn_index.open.ms", "ms", "lower", "wall"),
    spec("aryn_index.open.decode_ms", "ms", "lower", "wall"),
    spec("aryn_core.vfs.read_ms", "ms", "lower", "wall"),
    spec("aryn_core.vfs.bytes_read", "bytes", "lower", "count"),
    spec("aryn_index.wal_replayed", "count", "lower", "count"),
    spec("aryn_index.segments_recovered", "count", "lower", "count"),
    // every workload: the cost of tracing itself.
    spec("bench.trace_overhead_ms", "ms", "lower", "wall"),
    spec("bench.trace_overhead_pct", "%", "lower", "wall"),
    spec("bench.spans_recorded", "count", "lower", "count"),
];

fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; the run is correct when this is empty.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Informational lines (printed, not part of the JSON result).
    notes: Vec<(String, f64, &'static str, &'static str)>,
}

impl Report {
    /// Sets a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds an informational line with its unit and clock.
    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        clock: &'static str,
    ) {
        self.notes.push((name.into(), value, unit, clock));
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable lines and the final JSON result line. The JSON
    /// holds every [`END_TO_END`] metric (untraced run) or every
    /// [`PER_LAYER`] metric (traced run). An end-to-end metric the workload
    /// failed to measure is an error; a per-layer metric it never set is a
    /// bypassed layer and reads 0.
    pub fn render(&self, traced: bool) -> Result<(String, String), String> {
        let specs = if traced { PER_LAYER } else { END_TO_END };
        let mut human = String::new();
        let mut metrics = Vec::with_capacity(specs.len());
        for s in specs {
            let value = match (self.values.get(s.name), traced) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {} was not measured", s.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", s.name));
            }
            let _ = writeln!(
                human,
                "{:<36} {:>16} {:<11} [{}]",
                s.name,
                fmt_num(value),
                s.unit,
                s.clock
            );
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(s.name),
                fmt_num(value),
                json_string(s.unit)
            ));
        }
        for (name, value, unit, clock) in &self.notes {
            let _ = writeln!(
                human,
                "{:<36} {:>16} {:<11} [{}]",
                name,
                fmt_num(*value),
                unit,
                clock
            );
        }
        for f in &self.failures {
            let _ = writeln!(human, "CHECK FAILED: {f}");
        }
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        Ok((human, json))
    }
}

/// A number with all its digits (Rust's shortest round-trip form, which
/// never uses an exponent and so is always valid JSON).
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v}")
    }
}

/// Peak resident set size of this process (VmHWM), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        aryn_core::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string key")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(specs: &[Spec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), s.better.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let v = benchmark_json();
        assert_eq!(listed(&v, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&v, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn render_prints_every_metric_as_json() {
        let mut r = Report::default();
        for s in END_TO_END {
            r.set(s.name, 1.5);
        }
        r.attempted = 3;
        r.note("search_p50_ms", 0.25, "ms", "wall");
        let (human, json) = r.render(false).expect("render");
        assert!(human.contains("search_p50_ms"));
        let v = aryn_core::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_int), Some(3));
        let m = v
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["op_p50_ms"].get("unit").and_then(Value::as_str),
            Some("ms")
        );

        // Traced: unset per-layer metrics read 0.
        let (_, json) = r.render(true).expect("render");
        let v = aryn_core::json::parse(&json).expect("valid JSON");
        let m = v
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(m.len(), PER_LAYER.len());

        // A missing end-to-end metric is an error, a failed check is reported.
        let mut r = Report::default();
        r.check(false, || "ids differ".into());
        assert!(r.render(false).is_err());
        assert!(!r.correct());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(12.0), "12");
        assert_eq!(fmt_num(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(fmt_num(1e-7), "0.0000001");
    }
}
