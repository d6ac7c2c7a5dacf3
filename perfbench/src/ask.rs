//! `ask`: the analyst's interactive path. One closed-loop client; Luna
//! sessions over the bench18 fixture at 5x paper size answer the 18
//! questions cyclically through `Luna::ask`, 504 asks per session and at
//! least two sessions per run, with the default `LunaConfig` (call cache
//! off, one executor worker).
//!
//! Traced run: every ask is a `luna.ask` span. Asks in the session's first
//! and last tenth are followed by Luna's public steps on the same question
//! (`plan`, `optimize`, `analyze`, `execute`), each its own span, which give
//! the per-step times and the ask overhead `ask - (plan + optimize +
//! execute)`. Outside those windows tracing alternates by cycle, and each
//! traced ask is compared with the same question one cycle before and after.

use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, percentile, quartiles};
use crate::trace::Recorder;
use crate::{repeated_setup, run_units, RunCfg};
use aryn_core::Result;
use aryn_llm::SimConfig;
use luna::bench18::{grade_answer, Bench18, Bench18Cfg, Grade};
use luna::Luna;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Size {
    pub n_ntsb: usize,
    pub n_earnings: usize,
    /// Asks per session.
    pub asks: usize,
}

/// Sessions every run holds, however short `--seconds` is. A session's
/// latency ramps up with its length, so a single session maps each stretch
/// of latencies to one stretch of time; pooling several spreads every
/// percentile over the whole run.
const MIN_SESSIONS: usize = 2;

impl Size {
    pub const FULL: Size = Size {
        n_ntsb: 300,
        n_earnings: 240,
        asks: 504,
    };
    #[cfg(test)]
    /// Paper size: small lakes can leave a question's denominator empty.
    pub const TINY: Size = Size {
        n_ntsb: 60,
        n_earnings: 48,
        asks: 180,
    };
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Luna's public steps, timed on the questions of the traced windows.
#[derive(Default)]
struct Steps {
    n: usize,
    plan_ms: f64,
    optimize_ms: f64,
    analyze_ms: f64,
    execute_ms: f64,
    plan_calls: u64,
    /// All model calls and simulated dollars the steps spent.
    calls: u64,
    usd: f64,
    node_ms: BTreeMap<String, f64>,
    rows_in: usize,
    unattributed_ms: f64,
    overhead_first: Vec<f64>,
    overhead_last: Vec<f64>,
    /// Questions whose step-by-step answer differed from the ask's.
    answer_mismatches: usize,
}

impl Steps {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        luna: &Luna,
        rec: &Recorder,
        question: &str,
        op: &str,
        ask_ms: f64,
        ask_answer: &str,
        first_tenth: bool,
    ) -> Result<()> {
        rec.scope("luna.steps", op, || {
            let u0 = luna.usage_stats();
            let t = Instant::now();
            let plan = rec.scope("luna.plan", op, || luna.plan(question))?;
            let plan_ms = ms_since(t);
            let u1 = luna.usage_stats();
            let t = Instant::now();
            let optimized = rec.scope("luna.optimize", op, || luna.optimize(&plan))?;
            let optimize_ms = ms_since(t);
            let t = Instant::now();
            rec.scope("luna.analyze", op, || luna.analyze(&optimized.plan));
            let analyze_ms = ms_since(t);
            let t = Instant::now();
            let result = rec.scope("luna.execute", op, || luna.execute(&optimized.plan))?;
            let execute_ms = ms_since(t);
            let u2 = luna.usage_stats();

            self.n += 1;
            self.plan_ms += plan_ms;
            self.optimize_ms += optimize_ms;
            self.analyze_ms += analyze_ms;
            self.execute_ms += execute_ms;
            self.plan_calls += u1.calls - u0.calls;
            self.calls += u2.calls - u0.calls;
            self.usd += u2.usage.cost_usd - u0.usage.cost_usd;
            let mut nodes_ms = 0.0;
            for t in &result.traces {
                *self.node_ms.entry(t.op_kind.clone()).or_default() += t.wall_ms;
                self.rows_in += t.rows_in;
                nodes_ms += t.wall_ms;
            }
            self.unattributed_ms += execute_ms - nodes_ms;
            let overhead = ask_ms - (plan_ms + optimize_ms + execute_ms);
            if first_tenth {
                self.overhead_first.push(overhead);
            } else {
                self.overhead_last.push(overhead);
            }
            if result.answer != ask_answer {
                self.answer_mismatches += 1;
            }
            Ok(())
        })
    }
}

/// One session's measurements.
#[derive(Default)]
struct Session {
    /// Questions per cycle.
    nq: usize,
    lat_ms: Vec<f64>,
    traced: Vec<bool>,
    correct: usize,
    failed: u64,
    first_error: Option<String>,
    /// Asks whose answer differed from the same question's first answer.
    mismatches: usize,
    secs: f64,
    llm_calls: u64,
    llm_usd: f64,
    spans_held: usize,
}

fn session(
    b: &Bench18,
    size: &Size,
    rec: &Recorder,
    trace: bool,
    steps: &mut Steps,
) -> Result<Session> {
    let luna = &b.luna;
    let nq = b.questions.len();
    let tenth = size.asks / 10;
    let mut first_answers: Vec<Option<String>> = vec![None; nq];
    let mut s = Session {
        nq,
        ..Session::default()
    };
    let u0 = luna.usage_stats();
    let (steps_calls, steps_usd) = (steps.calls, steps.usd);
    let t_session = Instant::now();
    for i in 0..size.asks {
        let (qi, cycle) = (i % nq, i / nq);
        let q = &b.questions[qi];
        let window = i < tenth || i >= size.asks - tenth;
        let traced = trace && (window || cycle % 2 == 1);
        rec.set_enabled(traced);
        let op = if traced {
            format!("q{qi}.c{cycle}")
        } else {
            String::new()
        };
        let t = Instant::now();
        let res = rec.scope("luna.ask", &op, || luna.ask(&q.question));
        let ms = ms_since(t);
        s.lat_ms.push(ms);
        s.traced.push(traced);
        let ans = match res {
            Ok(a) => a,
            Err(e) => {
                s.failed += 1;
                s.first_error
                    .get_or_insert_with(|| format!("{:?}: {e}", q.question));
                continue;
            }
        };
        if grade_answer(ans.answer(), &q.expected) == Grade::Correct {
            s.correct += 1;
        }
        match &first_answers[qi] {
            None => first_answers[qi] = Some(ans.answer().to_string()),
            Some(first) if first != ans.answer() => s.mismatches += 1,
            Some(_) => {}
        }
        if traced && window {
            steps.run(luna, rec, &q.question, &op, ms, ans.answer(), i < tenth)?;
        }
    }
    s.secs = t_session.elapsed().as_secs_f64();
    rec.set_enabled(false);
    let u1 = luna.usage_stats();
    s.llm_calls = u1.calls - u0.calls - (steps.calls - steps_calls);
    s.llm_usd = u1.usage.cost_usd - u0.usage.cost_usd - (steps.usd - steps_usd);
    s.spans_held = luna.telemetry().span_count();
    Ok(s)
}

/// Traced-minus-untraced ask latency: each traced ask against the mean of
/// the same question's untraced asks one cycle before and after (which
/// cancels the session's latency drift). Returns `(ms, % of untraced p50)`.
fn trace_overhead(s: &Session) -> (f64, f64) {
    let nq = s.nq;
    let diffs: Vec<f64> = (nq..s.lat_ms.len().saturating_sub(nq))
        .filter(|&i| s.traced[i] && !s.traced[i - nq] && !s.traced[i + nq])
        .map(|i| s.lat_ms[i] - (s.lat_ms[i - nq] + s.lat_ms[i + nq]) / 2.0)
        .collect();
    let untraced: Vec<f64> = s
        .lat_ms
        .iter()
        .zip(&s.traced)
        .filter(|(_, t)| !**t)
        .map(|(l, _)| *l)
        .collect();
    let ms = median(&diffs);
    let base = median(&untraced);
    (ms, if base > 0.0 { 100.0 * ms / base } else { 0.0 })
}

pub fn run(cfg: &RunCfg, size: &Size) -> Result<Report> {
    let rec = Recorder::new();
    let build = || {
        Bench18::build(Bench18Cfg {
            seed: cfg.seed,
            n_ntsb: size.n_ntsb,
            n_earnings: size.n_earnings,
            sim: SimConfig::with_seed(cfg.seed),
            ..Bench18Cfg::default()
        })
    };
    let mut setup = Vec::new();
    let mut fixture = Some(repeated_setup(&mut setup, build)?);
    let mut steps = Steps::default();
    let sessions = run_units(cfg.seconds, MIN_SESSIONS, |_| {
        // Each session starts from a freshly built fixture: Luna's span
        // buffer (shared with the ingest context) must start where the first
        // session's did.
        let b = match fixture.take() {
            Some(b) => b,
            None => {
                let t = Instant::now();
                let b = build()?;
                setup.push(t.elapsed().as_secs_f64());
                b
            }
        };
        session(&b, size, &rec, cfg.trace, &mut steps)
    })?;

    let mut r = Report::default();
    let asks = (size.asks * sessions.len()) as f64;
    r.attempted = asks as u64;
    r.failed = sessions.iter().map(|s| s.failed).sum();
    let first = &sessions[0];
    let ratio = first.correct as f64 / size.asks as f64;
    for (k, s) in sessions.iter().enumerate() {
        r.check(s.failed == 0, || {
            format!(
                "session {k}: {} asks failed, first: {:?}",
                s.failed, s.first_error
            )
        });
        r.check(s.mismatches == 0, || {
            format!(
                "session {k}: {} answers differ from the question's first answer",
                s.mismatches
            )
        });
        r.check(s.correct == first.correct, || {
            format!(
                "session {k}: {} correct, first session {}",
                s.correct, first.correct
            )
        });
    }
    r.check(steps.answer_mismatches == 0, || {
        format!(
            "{} step-by-step answers differ from the ask's",
            steps.answer_mismatches
        )
    });
    let lat: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.lat_ms.iter().copied())
        .collect();
    let calls = sessions.iter().map(|s| s.llm_calls).sum::<u64>() as f64 / asks;
    let usd = sessions.iter().map(|s| s.llm_usd).sum::<f64>() / asks;
    let last = sessions.last().expect("at least one session");

    if !cfg.trace {
        r.set("setup_s", median(&setup));
        r.set(
            "ops_per_s",
            asks / sessions.iter().map(|s| s.secs).sum::<f64>(),
        );
        r.set("op_p50_ms", percentile(&lat, 50.0));
        r.set("op_p99_ms", percentile(&lat, 99.0));
        r.set("peak_rss_mb", peak_rss_mb());
        r.set("correct_ratio", ratio);
        let (q1, q3) = quartiles(&lat);
        r.note("op_q1_ms", q1, "ms", "wall");
        r.note("op_q3_ms", q3, "ms", "wall");
        let window = (size.asks / 10).max(1);
        r.note(
            "op_p50_ms.first_tenth",
            percentile(&first.lat_ms[..window], 50.0),
            "ms",
            "wall",
        );
        r.note(
            "op_p50_ms.last_tenth",
            percentile(&first.lat_ms[size.asks - window..], 50.0),
            "ms",
            "wall",
        );
        r.note("llm_calls_per_op", calls, "count", "count");
        r.note("llm_usd_per_op", usd, "usd.virtual", "virtual");
        r.note("error_ratio", r.failed as f64 / asks, "ratio", "count");
        r.note("sessions", sessions.len() as f64, "count", "count");
        r.note("spans_held", last.spans_held as f64, "count", "count");
        return Ok(r);
    }

    let n = steps.n.max(1) as f64;
    r.set("luna.plan.ms", steps.plan_ms / n);
    r.set("luna.optimize.ms", steps.optimize_ms / n);
    r.set("luna.analyze.ms", steps.analyze_ms / n);
    r.set("luna.execute.ms", steps.execute_ms / n);
    r.set("luna.plan.llm_calls", steps.plan_calls as f64 / n);
    for kind in NODE_KINDS {
        let ms = steps.node_ms.get(kind.0).copied().unwrap_or(0.0);
        r.set(kind.1, ms / n);
    }
    for kind in steps.node_ms.keys() {
        r.check(NODE_KINDS.iter().any(|k| k.0 == kind), || {
            format!("operator kind {kind} has no per-layer metric")
        });
    }
    r.set("luna.exec.rows_in", steps.rows_in as f64 / n);
    r.set("luna.exec.unattributed_ms", steps.unattributed_ms / n);
    r.set(
        "luna.ask.overhead_ms.first_tenth",
        median(&steps.overhead_first),
    );
    r.set(
        "luna.ask.overhead_ms.last_tenth",
        median(&steps.overhead_last),
    );
    r.set("aryn_telemetry.spans_held", last.spans_held as f64);
    r.set("aryn_llm.calls_per_op", calls);
    r.set("aryn_llm.usd_per_op", usd);
    let overheads: Vec<(f64, f64)> = sessions.iter().map(trace_overhead).collect();
    r.set(
        "bench.trace_overhead_ms",
        mean(&overheads.iter().map(|o| o.0).collect::<Vec<_>>()),
    );
    r.set(
        "bench.trace_overhead_pct",
        mean(&overheads.iter().map(|o| o.1).collect::<Vec<_>>()),
    );
    let spans = rec.take();
    r.set("bench.spans_recorded", spans.len() as f64);
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("ask-seed{}.spans.jsonl", cfg.seed));
        crate::trace::write_jsonl(&path, &spans)
            .map_err(|e| aryn_core::ArynError::Io(e.to_string()))?;
        r.note(
            format!("spans written to {}", path.display()),
            spans.len() as f64,
            "count",
            "count",
        );
    }
    Ok(r)
}

/// Plan operator kinds (`PlanOp::kind`) and their per-layer metric names.
const NODE_KINDS: &[(&str, &str)] = &[
    ("queryDatabase", "luna.exec.queryDatabase.ms"),
    ("basicFilter", "luna.exec.basicFilter.ms"),
    ("rangeFilter", "luna.exec.rangeFilter.ms"),
    ("llmFilter", "luna.exec.llmFilter.ms"),
    ("llmExtract", "luna.exec.llmExtract.ms"),
    ("count", "luna.exec.count.ms"),
    ("aggregate", "luna.exec.aggregate.ms"),
    ("sort", "luna.exec.sort.ms"),
    ("topK", "luna.exec.topK.ms"),
    ("join", "luna.exec.join.ms"),
    ("math", "luna.exec.math.ms"),
    ("graphExpand", "luna.exec.graphExpand.ms"),
    ("summarizeData", "luna.exec.summarizeData.ms"),
    ("llmGenerate", "luna.exec.llmGenerate.ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(trace: bool) -> RunCfg {
        RunCfg {
            seed: 42,
            seconds: 0.0,
            trace,
            out_dir: None,
        }
    }

    #[test]
    fn tiny_untraced_run_passes_its_checks() {
        let r = run(&cfg(false), &Size::TINY).expect("ask run");
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.attempted, (MIN_SESSIONS * Size::TINY.asks) as u64);
        let ratio = r.get("correct_ratio").expect("correct_ratio");
        assert!(ratio > 0.0 && ratio <= 1.0);
        assert!(r.render(false).is_ok());
    }

    #[test]
    fn tiny_traced_run_reports_steps_and_overhead() {
        let r = run(&cfg(true), &Size::TINY).expect("ask run");
        assert!(r.correct(), "{:?}", r.failures);
        assert!(r.get("luna.plan.ms").expect("plan") > 0.0);
        assert!(r.get("luna.execute.ms").expect("execute") > 0.0);
        assert!(r.get("luna.exec.queryDatabase.ms").expect("scan") > 0.0);
        assert!(r.get("luna.ask.overhead_ms.last_tenth").is_some());
        assert!(r.get("aryn_telemetry.spans_held").expect("spans") > 0.0);
        assert!(r.get("bench.spans_recorded").expect("recorded") > 0.0);
        assert!(r.render(true).is_ok());
    }
}
