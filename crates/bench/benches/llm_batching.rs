//! E14 — cross-document LLM micro-batching for semantic operators
//! (DESIGN.md §5e).
//!
//! Runs `llm_filter` over a 64-doc mock corpus unbatched and at several
//! batch widths, reporting model calls issued, calls saved, the batch-size
//! distribution, wall time, and answer parity with the unbatched run. One
//! row uses the default 2048-token budget to show the packer splitting
//! batches below `max_items` when contexts don't fit.
//!
//! Run with: `cargo bench -p bench --bench llm_batching`
//! Smoke mode (CI): `LLM_BATCHING_SMOKE=1` shrinks the corpus to 16 docs.

use aryn::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Run {
    label: String,
    calls: u64,
    saved: u64,
    batched_calls: u64,
    histogram: Vec<(usize, usize)>,
    wall_ms: f64,
    ids: Vec<String>,
}

fn run_once(corpus: &Corpus, max_items: usize, token_budget: usize, label: &str) -> (Run, Trace) {
    let ctx = Context::new().with_exec(ExecConfig {
        batch_max_items: max_items,
        batch_token_budget: token_budget,
        ..ExecConfig::default()
    });
    ctx.register_corpus("ntsb", corpus);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::perfect(11))));
    let start = Instant::now();
    let (docs, stats) = ctx
        .read_lake("ntsb")
        .unwrap()
        .llm_filter(&client, "the incident was caused by environmental factors")
        .collect_stats()
        .unwrap();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let run = Run {
        label: label.to_string(),
        calls: client.stats().calls,
        saved: stats.llm().calls_saved,
        batched_calls: stats.llm().batched_calls,
        histogram: stats.batch_size_histogram(),
        wall_ms,
        ids: docs.iter().map(|d| d.id.0.clone()).collect(),
    };
    (run, ctx.telemetry().snapshot())
}

fn main() {
    let smoke = std::env::var("LLM_BATCHING_SMOKE").is_ok();
    let n = if smoke { 16 } else { 64 };
    let widths: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8, 16] };
    println!("E14: cross-document micro-batching, llm_filter over {n} docs\n");
    let corpus = Corpus::ntsb(11, n);

    let mut runs: Vec<Run> = Vec::new();
    let mut last_trace: Option<Trace> = None;
    for &k in widths {
        let (run, trace) = run_once(&corpus, k, 1 << 20, &format!("max_items={k:<2} budget=1M"));
        let ceil = n.div_ceil(k) as u64;
        assert!(
            run.calls <= ceil,
            "{}: {} calls > ceil({n}/{k}) = {ceil}",
            run.label,
            run.calls
        );
        runs.push(run);
        last_trace = Some(trace);
    }
    // Default token budget: the packer splits batches to fit, so calls land
    // between the unbatched count and the generous-budget count.
    let k = if smoke { 4 } else { 8 };
    let (tight, _) = run_once(&corpus, k, 2048, &format!("max_items={k:<2} budget=2048"));
    runs.push(tight);

    let base_ids = runs[0].ids.clone();
    let base_calls = runs[0].calls;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<24} {:>6} {:>6} {:>7} {:>9}  histogram",
        "run", "calls", "saved", "packed", "wall_ms"
    );
    for r in &runs {
        assert_eq!(r.ids, base_ids, "{}: batched output diverged", r.label);
        assert_eq!(r.calls + r.saved, base_calls, "{}: savings must account for every call", r.label);
        let hist = r
            .histogram
            .iter()
            .map(|(size, count)| format!("{count}x{size}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            report,
            "{:<24} {:>6} {:>6} {:>7} {:>9.2}  {}",
            r.label, r.calls, r.saved, r.batched_calls, r.wall_ms, hist
        );
    }
    let best = runs.iter().map(|r| r.calls).min().unwrap();
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "calls: {base_calls} unbatched -> {best} at the widest batch ({:.1}% saved); all runs byte-identical",
        100.0 * (base_calls - best) as f64 / base_calls as f64
    );
    print!("{report}");

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create bench_results/: {e}");
    } else {
        let path = dir.join("llm_batching.txt");
        match std::fs::write(&path, &report) {
            Ok(()) => println!("\nreport exported to {}", path.display()),
            Err(e) => eprintln!("report export failed: {e}"),
        }
    }
    if let Some(snap) = last_trace {
        let trace = Trace {
            label: "llm_batching".into(),
            spans: snap.spans,
        };
        match bench::export_trace("llm_batching", &trace) {
            Ok(p) => println!("trace exported to {}", p.display()),
            Err(e) => eprintln!("trace export failed: {e}"),
        }
    }
}
