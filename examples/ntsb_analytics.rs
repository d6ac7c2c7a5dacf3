//! The paper's §6.2 sample execution: "What percent of environmentally
//! caused incidents were due to wind?"
//!
//! Shows the whole Luna loop — the plan DAG (Figure 5), the generated
//! Python-like Sycamore code (Figure 6), the optimizer's rewrites, the
//! per-operator execution trace, and the final answer checked against
//! corpus ground truth.
//!
//! Run with: `cargo run --example ntsb_analytics`

use aryn::prelude::*;
use aryn_core::Value;
use luna::ntsb_schema;
use std::sync::Arc;

fn main() -> aryn_core::Result<()> {
    // Build and ingest the corpus: partition → extract → document store.
    let ctx = Context::new();
    let corpus = Corpus::ntsb(42, 60);
    ctx.register_corpus("ntsb", &corpus);
    let ingest_client = LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(42))));
    let n = ingest_lake(
        &ctx,
        "ntsb",
        "ntsb",
        &ingest_client,
        ntsb_schema(),
        Detector::DetrSim,
    )?;
    println!("ingested {n} NTSB reports into the \"ntsb\" store\n");

    let luna = Luna::new(
        ctx,
        &["ntsb"],
        LunaConfig {
            sim: SimConfig::with_seed(42),
            ..LunaConfig::default()
        },
    )?;

    let question = "What percent of environmentally caused incidents were due to wind?";
    println!("Q: {question}\n");
    let ans = luna.ask(question)?;

    // Figure 5: the natural-language plan.
    println!("--- query plan (natural language) ---");
    print!("{}", ans.optimized_plan.describe());

    // Figure 6: the generated code.
    println!("\n--- generated Sycamore code ---");
    print!("{}", luna::codegen::to_python(&ans.optimized_plan));

    println!("\n--- optimizer rewrites ---");
    for note in &ans.optimizer_notes {
        println!("  - {note}");
    }

    println!("\n--- execution trace ---");
    print!("{}", ans.result.render_trace());

    println!("\nA: {}", ans.answer());

    // Check against ground truth computed from the generating records.
    let wind = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("cause_detail").and_then(Value::as_str) == Some("wind"))
        .count() as f64;
    let env = corpus
        .docs
        .iter()
        .filter(|d| d.record.get("weather_related").and_then(Value::as_bool) == Some(true))
        .count() as f64;
    println!(
        "ground truth: {wind} wind-caused of {env} environmental incidents = {:.2}%",
        100.0 * wind / env
    );

    // A couple more analytics questions over the same store.
    for q in [
        "Which state had the most incidents?",
        "How many incidents involved fatalities?",
        // Collection summarization (hierarchical map-reduce under the
        // model's context window).
        "Summarize the incidents in Alaska",
    ] {
        let a = luna.ask(q)?;
        println!("\nQ: {q}\nA: {}", a.answer());
    }

    println!("\ntotal simulated LLM spend: ${:.4}", luna.usage_stats().usage.cost_usd);
    Ok(())
}
