//! `UsageStats` as the one LLM-metrics delta: `since`/`merge` cover every
//! field, `snapshot_usage` counts each meter and cache once, and
//! `record_into` writes each nonzero field under its one span name.

use aryn_core::obj;
use aryn_llm::prompt::tasks;
use aryn_llm::{
    snapshot_usage, LlmCallCache, LlmClient, MockLlm, SimConfig, Usage, UsageMeter, UsageStats,
    GPT35_SIM, GPT4_SIM, LLAMA7B_SIM,
};
use aryn_telemetry::Telemetry;
use std::sync::Arc;

fn client(spec: &'static aryn_llm::ModelSpec, cfg: SimConfig) -> LlmClient {
    LlmClient::new(Arc::new(MockLlm::new(spec, cfg)))
}

/// A `UsageStats` with every field set to a distinct nonzero value.
fn every_field_set() -> UsageStats {
    UsageStats {
        calls: 1,
        retries: 2,
        parse_repairs: 3,
        parse_failures: 4,
        transient_failures: 5,
        batched_calls: 6,
        batched_items: 7,
        calls_saved: 8,
        breaker_trips: 9,
        fallback_calls: 10,
        degraded_docs: 11,
        cache_hits: 12,
        cost_saved_usd: 0.25,
        usage: Usage {
            input_tokens: 13,
            output_tokens: 14,
            cost_usd: 0.5,
            latency_ms: 15.0,
        },
    }
}

#[test]
fn record_into_writes_each_nonzero_field_under_one_name() {
    let tel = Telemetry::new("t");
    let mut span = tel.span("s", "operator");
    every_field_set().record_into(&mut span);
    span.finish();
    let mut span = tel.span("empty", "operator");
    UsageStats::default().record_into(&mut span);
    span.finish();
    let trace = tel.snapshot();
    let full = &trace.spans[0];
    let counters: Vec<(&str, u64)> =
        full.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        counters,
        vec![
            ("llm_batched_calls", 6),
            ("llm_batched_items", 7),
            ("llm_breaker_trips", 9),
            ("llm_cache_hits", 12),
            ("llm_calls", 1),
            ("llm_calls_saved", 8),
            ("llm_degraded_docs", 11),
            ("llm_fallback_calls", 10),
            ("llm_input_tokens", 13),
            ("llm_output_tokens", 14),
            ("llm_parse_failures", 4),
            ("llm_parse_repairs", 3),
            ("llm_retries", 2),
            ("llm_transient_failures", 5),
        ]
    );
    // The builder itself always adds the span's own `wall_ms`.
    let gauges: Vec<(&str, f64)> = full
        .gauges
        .iter()
        .filter(|(k, _)| *k != "wall_ms")
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(
        gauges,
        vec![("llm_cost_saved_usd", 0.25), ("llm_cost_usd", 0.5), ("llm_latency_ms", 15.0)]
    );
    let empty = &trace.spans[1];
    assert!(empty.counters.is_empty(), "{:?}", empty.counters);
    assert!(empty.gauges.keys().all(|k| k == "wall_ms"), "{:?}", empty.gauges);
    // One zero field among nonzero ones is left out, not written as 0.
    let mut span = tel.span("no-retries", "operator");
    UsageStats {
        retries: 0,
        ..every_field_set()
    }
    .record_into(&mut span);
    span.finish();
    let trace = tel.snapshot();
    assert!(!trace.spans[2].counters.contains_key("llm_retries"));
    assert_eq!(trace.spans[2].counters.len(), 13);
}

#[test]
fn since_and_merge_cover_every_field() {
    let one = every_field_set();
    let mut two = one;
    two.merge(&one);
    assert_eq!(two.cache_hits, 24);
    assert_eq!(two.cost_saved_usd, 0.5);
    assert_eq!(two.tokens(), 54);
    assert_eq!(two.since(&one), one);
    assert_eq!(one.since(&two), UsageStats::default(), "saturates at zero");
}

#[test]
fn snapshot_usage_dedups_meters_and_caches_across_fallback_chains() {
    let cache = Arc::new(LlmCallCache::with_capacity(32));
    let meter = UsageMeter::new();
    let llama = client(&LLAMA7B_SIM, SimConfig::perfect(1)).with_cache(Arc::clone(&cache));
    let a = client(&GPT4_SIM, SimConfig::perfect(1))
        .with_meter(Arc::clone(&meter))
        .with_cache(Arc::clone(&cache))
        .with_fallback(llama.clone());
    let b = client(&GPT35_SIM, SimConfig::perfect(1))
        .with_meter(Arc::clone(&meter))
        .with_cache(Arc::clone(&cache));
    let p = tasks::extract(&obj! { "city" => "string" }, "Happened near Denver, CO.");
    a.generate_json(&p, 256).unwrap();
    a.generate_json(&p, 256).unwrap();
    llama.generate(&p, 64).unwrap();
    let before = snapshot_usage([&a, &b, &llama]);
    // a and b share one meter, a's fallback tier is llama itself, and all
    // three share one cache: each is counted once.
    assert_eq!(before.calls, 2, "{before:?}");
    assert_eq!(before.cache_hits, 1);
    assert_eq!(before.cost_saved_usd, cache.stats().cost_saved_usd);
    b.generate_json(&p, 256).unwrap();
    let delta = snapshot_usage([&a, &b]).since(&before);
    assert_eq!((delta.calls, delta.cache_hits), (1, 0));
}
