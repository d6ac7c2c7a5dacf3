//! Interactive Luna session — the paper's "interactive UI / notebook"
//! interface (§6.1) in terminal form.
//!
//! Usage:
//!   cargo run --example luna_repl                    # interactive stdin loop
//!   cargo run --example luna_repl -- "How many ..."  # one-shot question(s)
//!
//! Inside the loop, prefix a question with `explain ` to see the plan, the
//! generated code, the optimizer notes, and the per-operator trace — with
//! `analyze ` for the EXPLAIN ANALYZE telemetry view (per-operator rows/LLM
//! spend, planner/optimizer spans, trace fingerprint) — or with `check ` to
//! run the semantic plan analyzer and see its diagnostics interleaved with
//! the generated code, without executing anything.

use aryn::prelude::*;
use luna::{earnings_schema, ntsb_schema};
use std::io::{BufRead, Write as _};
use std::sync::Arc;

fn main() -> aryn_core::Result<()> {
    eprintln!("loading corpora and ingesting (partition → extract → store)...");
    let seed = 42;
    let ctx = Context::new();
    let ntsb = Corpus::ntsb(seed, 60);
    let earnings = Corpus::earnings(seed, 48);
    ctx.register_corpus("ntsb", &ntsb);
    ctx.register_corpus("earnings", &earnings);
    let client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))));
    ingest_lake(&ctx, "ntsb", "ntsb", &client, ntsb_schema(), Detector::DetrSim)?;
    ingest_lake(&ctx, "earnings", "earnings", &client, earnings_schema(), Detector::DetrSim)?;
    let luna = Luna::new(
        ctx,
        &["ntsb", "earnings"],
        LunaConfig {
            sim: SimConfig::with_seed(seed),
            ..LunaConfig::default()
        },
    )?;
    eprintln!(
        "ready: {} NTSB reports + {} earnings reports.\n",
        ntsb.len(),
        earnings.len()
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        for q in args {
            run_question(&luna, &q, Mode::Answer)?;
        }
        return Ok(());
    }

    eprintln!(
        "ask questions (\"explain <q>\" for the full trace, \"analyze <q>\" for telemetry, \"check <q>\" for plan diagnostics, ctrl-d to exit):"
    );
    let stdin = std::io::stdin();
    loop {
        eprint!("luna> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        let (q, mode) = match (
            line.strip_prefix("explain "),
            line.strip_prefix("analyze "),
            line.strip_prefix("check "),
        ) {
            (Some(rest), _, _) => (rest, Mode::Explain),
            (_, Some(rest), _) => (rest, Mode::Analyze),
            (_, _, Some(rest)) => (rest, Mode::Check),
            _ => (line, Mode::Answer),
        };
        if let Err(e) = run_question(&luna, q, mode) {
            eprintln!("error: {e}");
        }
    }
    eprintln!("\ntotal simulated LLM spend this session: ${:.4}", luna.usage_stats().usage.cost_usd);
    Ok(())
}

#[derive(Clone, Copy)]
enum Mode {
    Answer,
    Explain,
    Analyze,
    Check,
}

fn run_question(luna: &Luna, question: &str, mode: Mode) -> aryn_core::Result<()> {
    if let Mode::Check = mode {
        // Static analysis only: plan the question, run the analyzer, render
        // the diagnostics against the generated code. Nothing executes.
        let (plan, analysis) = luna.check(question)?;
        println!("Q: {question}");
        println!("{}", luna::codegen::to_python_annotated(&plan, &analysis));
        if analysis.diagnostics.is_empty() {
            println!("analyzer: plan is clean.\n");
        } else {
            println!("analyzer findings:\n{}", analysis.render());
        }
        return Ok(());
    }
    let ans = luna.ask(question)?;
    match mode {
        Mode::Explain => println!("{}", ans.explain()),
        Mode::Analyze => println!("{}", ans.explain_analyze()),
        Mode::Answer | Mode::Check => {
            println!("Q: {question}");
            println!("A: {}\n", ans.answer());
        }
    }
    Ok(())
}
