//! Cross-document micro-batching for semantic operators.
//!
//! The paper's optimizer "combines and batches operations when possible"
//! (§6.1); LOTUS and DocETL show the complementary lever: packing many
//! *rows* into one prompt with indexed structured output, so an
//! `llm_filter` over N documents costs ~N/K model round-trips instead of N.
//! This module is that layer:
//!
//! 1. a **token-budgeted packer** ([`pack`]) that groups K single-item
//!    payloads into one `[ITEM i]`-indexed prompt, bounded by
//!    [`BatchConfig::max_items`], [`BatchConfig::token_budget`], and the
//!    model's context window (input *and* the scaled completion cap);
//! 2. a **strict indexed-JSON parser**: the response must be one JSON
//!    object keyed by batch position (`{"0": …, "1": …}`); unknown keys are
//!    ignored, missing keys mark their items unresolved;
//! 3. a **split-and-retry fallback**: a malformed or partially-missing
//!    response bisects the unresolved items into sub-batches, down to
//!    singletons that replay the full unbatched
//!    [`LlmClient::generate_json`] ladder — so per-item results (and
//!    therefore `skip_failures` semantics) are *exactly* those of unbatched
//!    execution, item by item;
//! 4. **call-cache interplay**: with a cache attached to the client, every
//!    item is probed under its own single-call fingerprint first — warm
//!    items never enter a pack — and every item resolved from a packed
//!    response is memoized individually, so a later unbatched (or batched)
//!    run hits.
//!
//! Batched execution is answer-preserving by construction on the simulated
//! models: per-item draws are keyed on the reconstructed single-item
//! prompt, and the proptests in `crates/sycamore/tests/batching.rs` pin
//! byte-identical results against the unbatched path.

use crate::cache::CacheKey;
use crate::client::LlmClient;
use crate::model::Usage;
use crate::prompt::{build_batch_prompt, build_prompt};
use crate::registry::TaskKind;
use aryn_core::text::count_tokens;
use aryn_core::{json, Result, Value};

/// Knobs for the packer. Defaults keep batching *off* (`max_items: 1`), so
/// existing pipelines, call counts, and trace fingerprints are unchanged
/// until a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum items per packed call; 0 or 1 disables packing.
    pub max_items: usize,
    /// Token budget for the item payloads of one packed prompt (the
    /// envelope and completion budgets are accounted separately, and the
    /// model window always bounds the total).
    pub token_budget: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_items: 1,
            token_budget: 2048,
        }
    }
}

impl BatchConfig {
    pub fn enabled(&self) -> bool {
        self.max_items > 1
    }
}

/// How a batched run executed, for stats and telemetry. The LLM counters
/// (packed calls and items, calls saved, cache hits) are in the client's
/// meter and cache, like every other call's.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Size of every packed (≥2-item) model call issued, including
    /// bisection retries — the batch-size histogram.
    pub batch_sizes: Vec<usize>,
    /// Items that fell back to singleton `generate_json` calls (packs of
    /// one, bisection leaves, or payloads too big to pack).
    pub singleton_fallbacks: usize,
}

/// Runs `kind` over every context in `contexts`, packing cache-cold items
/// into indexed multi-item prompts. Returns per-item results **in input
/// order** — `results[i]` is what
/// `client.generate_json(build_prompt(kind, params, &contexts[i]), max_output)`
/// returns, obtained with as few model calls as the knobs allow.
///
/// `max_output` is the *per-item* completion budget, identical to the
/// unbatched call's; packed calls scale it by the pack size.
pub fn run_batched(
    client: &LlmClient,
    kind: TaskKind,
    params: &Value,
    contexts: &[String],
    max_output: usize,
    cfg: BatchConfig,
) -> (Vec<Result<Value>>, BatchReport) {
    let mut results: Vec<Option<Result<Value>>> = (0..contexts.len()).map(|_| None).collect();
    let mut report = BatchReport::default();
    if !cfg.enabled() {
        for (i, ctx) in contexts.iter().enumerate() {
            let prompt = build_prompt(kind, params, ctx);
            results[i] = Some(client.generate_json(&prompt, max_output));
        }
        report.singleton_fallbacks = contexts.len();
        return (finish(results), report);
    }

    // Cache probe: warm items resolve through the ordinary single-call path
    // (one hit each, same parse ladder) and never enter a pack.
    let cache = client.cache();
    let mut cold: Vec<(usize, &str)> = Vec::new();
    for (i, ctx) in contexts.iter().enumerate() {
        let single = build_prompt(kind, params, ctx);
        let probe = cache.as_ref().and_then(|c| {
            c.peek(CacheKey::for_call_in(
                client.cache_namespace(),
                client.model_name(),
                &single,
                max_output,
                0.0,
            ))
        });
        if let Some(out) = probe {
            // The peek already counted the hit; resolve the value via the
            // same repair ladder generate_json applies to a hit.
            results[i] = Some(resolve_cached(client, &single, max_output, out.text));
        } else {
            cold.push((i, ctx.as_str()));
        }
    }

    for pack_items in pack(client, kind, params, &cold, max_output, cfg) {
        run_pack(
            client,
            kind,
            params,
            &pack_items,
            max_output,
            &mut results,
            &mut report,
        );
    }
    (finish(results), report)
}

fn finish(results: Vec<Option<Result<Value>>>) -> Vec<Result<Value>> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err(aryn_core::ArynError::Llm("batch item unresolved".into()))))
        .collect()
}

/// Greedy in-order packing under three bounds: `max_items`, the payload
/// `token_budget`, and the window (envelope + payloads + scaled completion
/// cap must fit). An item too large to share a pack becomes a singleton.
fn pack<'a>(
    client: &LlmClient,
    kind: TaskKind,
    params: &Value,
    items: &[(usize, &'a str)],
    max_output: usize,
    cfg: BatchConfig,
) -> Vec<Vec<(usize, &'a str)>> {
    let envelope = count_tokens(&build_batch_prompt(kind, params, &[]));
    // Per-item completion budget inside the batch object: the item's own
    // cap plus a little JSON-key overhead.
    let per_item_out = max_output + 8;
    let window = client.context_window();
    let mut packs: Vec<Vec<(usize, &'a str)>> = Vec::new();
    let mut cur: Vec<(usize, &'a str)> = Vec::new();
    let mut cur_tokens = 0usize;
    for (i, ctx) in items {
        let t = count_tokens(ctx) + 4; // marker line overhead
        let k = cur.len() + 1;
        let fits_budget = cur_tokens + t <= cfg.token_budget;
        let fits_window = envelope + cur_tokens + t + k * per_item_out + 16 <= window;
        if !cur.is_empty() && (cur.len() >= cfg.max_items || !fits_budget || !fits_window) {
            packs.push(std::mem::take(&mut cur));
            cur_tokens = 0;
        }
        cur.push((*i, ctx));
        cur_tokens += t;
    }
    if !cur.is_empty() {
        packs.push(cur);
    }
    packs
}

/// Executes one pack, bisecting on malformed or partially-missing
/// responses. Singletons replay the full unbatched ladder.
fn run_pack(
    client: &LlmClient,
    kind: TaskKind,
    params: &Value,
    items: &[(usize, &str)],
    max_output: usize,
    results: &mut [Option<Result<Value>>],
    report: &mut BatchReport,
) {
    if items.is_empty() {
        return;
    }
    if items.len() == 1 {
        let (i, ctx) = items[0];
        let prompt = build_prompt(kind, params, ctx);
        results[i] = Some(client.generate_json(&prompt, max_output));
        report.singleton_fallbacks += 1;
        return;
    }
    let payloads: Vec<String> = items.iter().map(|(_, c)| c.to_string()).collect();
    let prompt = build_batch_prompt(kind, params, &payloads);
    let batch_max = items.len() * (max_output + 8) + 16;
    report.batch_sizes.push(items.len());
    client.meter_ref().bump(|s| s.batched_calls += 1);
    // Packed calls never re-ask at raised temperature (that would resample
    // every item at once); recovery is structural, via bisection. They also
    // bypass the prompt-level cache — items are memoized individually.
    let response = client.call_model(&prompt, batch_max, 0.0, 0);
    let unresolved: Vec<(usize, &str)> = match response {
        Ok((text, usage)) => {
            client.meter_ref().record(&usage);
            let parsed = match json::parse(&text) {
                Ok(v) => Some(v),
                Err(_) => match json::parse_lenient(&text) {
                    Ok(v) => {
                        client.meter_ref().bump(|s| s.parse_repairs += 1);
                        Some(v)
                    }
                    Err(_) => {
                        client.meter_ref().bump(|s| s.parse_failures += 1);
                        None
                    }
                },
            };
            let obj = parsed.as_ref().and_then(Value::as_object);
            let n = items.len().max(1);
            let share = Usage {
                input_tokens: usage.input_tokens / n,
                output_tokens: usage.output_tokens / n,
                cost_usd: usage.cost_usd / n as f64,
                latency_ms: usage.latency_ms / n as f64,
            };
            let mut missing = Vec::new();
            let mut accepted = 0usize;
            for (pos, (i, ctx)) in items.iter().enumerate() {
                match obj.and_then(|m| m.get(&pos.to_string())) {
                    Some(v) => {
                        accepted += 1;
                        let single = build_prompt(kind, params, ctx);
                        memoize_item(client, &single, max_output, v, share);
                        results[*i] = Some(Ok(v.clone()));
                    }
                    None => missing.push((*i, *ctx)),
                }
            }
            if accepted > 0 {
                client.meter_ref().bump(|s| {
                    s.batched_items += accepted as u64;
                    s.calls_saved += accepted.saturating_sub(1) as u64;
                });
            }
            missing
        }
        // Transient exhaustion or overflow on the packed call: retry
        // structurally. Halves have smaller prompts and fresh draws;
        // singletons surface per-item errors.
        Err(_) => items.to_vec(),
    };
    if unresolved.is_empty() {
        return;
    }
    let mid = unresolved.len().div_ceil(2);
    let (left, right) = unresolved.split_at(mid);
    run_pack(client, kind, params, left, max_output, results, report);
    run_pack(client, kind, params, right, max_output, results, report);
}

/// Memoizes one packed item under its single-call fingerprint, with a
/// prorated share of the packed call's usage, so later runs (batched or
/// not) hit instead of calling the model.
fn memoize_item(
    client: &LlmClient,
    single_prompt: &str,
    max_output: usize,
    value: &Value,
    share: Usage,
) {
    let Some(cache) = client.cache() else { return };
    let key = CacheKey::for_call_in(
        client.cache_namespace(),
        client.model_name(),
        single_prompt,
        max_output,
        0.0,
    );
    cache.insert(key, json::to_string_pretty(value), share);
}

/// Resolves a cache-warm item: replays `generate_json`'s parse ladder over
/// the cached text (strict → lenient-repair → re-ask at 0.4) without
/// re-counting the hit the `peek` probe already recorded.
fn resolve_cached(
    client: &LlmClient,
    prompt: &str,
    max_output: usize,
    cached_text: String,
) -> Result<Value> {
    let policy = client.retry_policy();
    let mut text = cached_text;
    let mut attempt_base = policy.max_transient.max(1);
    for reask in 0..=policy.max_reask {
        if let Ok(v) = json::parse(&text) {
            return Ok(v);
        }
        match json::parse_lenient(&text) {
            Ok(v) => {
                client.meter_ref().bump(|s| s.parse_repairs += 1);
                return Ok(v);
            }
            Err(_) => {
                client.meter_ref().bump(|s| {
                    s.parse_failures += 1;
                    if reask < policy.max_reask {
                        s.retries += 1;
                    }
                });
            }
        }
        if reask == policy.max_reask {
            break;
        }
        let (t, usage) = client.call_model(prompt, max_output, 0.4, attempt_base)?;
        client.meter_ref().record(&usage);
        attempt_base += policy.max_transient.max(1);
        text = t;
    }
    Err(aryn_core::ArynError::Llm(format!(
        "{}: unparseable JSON after {} re-asks",
        client.model_name(),
        policy.max_reask
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockLlm, SimConfig};
    use crate::registry::GPT4_SIM;
    use aryn_core::obj;
    use std::sync::Arc;

    fn client(cfg: SimConfig) -> LlmClient {
        LlmClient::new(Arc::new(MockLlm::new(&GPT4_SIM, cfg)))
    }

    fn docs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "Report {i}: the accident occurred near Anchorage, AK after an encounter \
                     with gusting wind during final approach."
                )
            })
            .collect()
    }

    #[test]
    fn packed_run_matches_unbatched_and_saves_calls() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(12);
        let unbatched = client(SimConfig::perfect(7));
        let expected: Vec<Value> = contexts
            .iter()
            .map(|c| {
                let p = build_prompt(TaskKind::Filter, &params, c);
                unbatched.generate_json(&p, 64).unwrap()
            })
            .collect();
        let batched = client(SimConfig::perfect(7));
        let cfg = BatchConfig {
            max_items: 4,
            token_budget: 4096,
        };
        let (got, report) = run_batched(&batched, TaskKind::Filter, &params, &contexts, 64, cfg);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.as_ref().unwrap(), e);
        }
        assert_eq!(unbatched.stats().calls, 12);
        assert_eq!(batched.stats().calls, 3, "12 items / 4 per pack");
        assert_eq!(report.batch_sizes, vec![4, 4, 4]);
        assert_eq!(batched.stats().calls_saved, 9);
        assert_eq!(batched.stats().batched_items, 12);
    }

    #[test]
    fn disabled_config_is_plain_sequential() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(3);
        let c = client(SimConfig::perfect(7));
        let (got, report) =
            run_batched(&c, TaskKind::Filter, &params, &contexts, 64, BatchConfig::default());
        assert!(got.iter().all(Result::is_ok));
        assert_eq!(c.stats().calls, 3);
        assert_eq!(c.stats().batched_calls, 0);
        assert_eq!(report.singleton_fallbacks, 3);
        assert!(report.batch_sizes.is_empty());
    }

    #[test]
    fn token_budget_splits_packs() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(8);
        let per_item = count_tokens(&contexts[0]) + 4;
        let c = client(SimConfig::perfect(7));
        // Budget for two items per pack.
        let cfg = BatchConfig {
            max_items: 8,
            token_budget: per_item * 2,
        };
        let (got, report) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert!(got.iter().all(Result::is_ok));
        assert_eq!(report.batch_sizes, vec![2, 2, 2, 2]);
    }

    /// Wraps the mock and corrupts its *batch* responses: `drop_top` removes
    /// the highest item index (partially-missing), `garble` replaces the
    /// whole response with unparseable text (malformed). Single-item prompts
    /// pass through untouched.
    struct CorruptBatches {
        inner: MockLlm,
        drop_top: bool,
        garble: bool,
    }

    impl crate::model::LanguageModel for CorruptBatches {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn generate(&self, req: &crate::model::LlmRequest) -> Result<crate::model::LlmResponse> {
            let mut resp = self.inner.generate(req)?;
            if req.prompt.contains("[TASK] batch") {
                if self.garble {
                    resp.text = "]]] totally not json {{{".to_string();
                } else if self.drop_top {
                    if let Ok(Value::Object(mut m)) = json::parse_lenient(&resp.text) {
                        if let Some(top) = m.keys().filter_map(|k| k.parse::<u64>().ok()).max() {
                            m.remove(&top.to_string());
                            resp.text = json::to_string_pretty(&Value::Object(m));
                        }
                    }
                }
            }
            Ok(resp)
        }
    }

    #[test]
    fn partially_missing_batch_response_recovers_all_items_in_order() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(8);
        let expected: Vec<Value> = {
            let c = client(SimConfig::perfect(7));
            contexts
                .iter()
                .map(|x| c.generate_json(&build_prompt(TaskKind::Filter, &params, x), 64).unwrap())
                .collect()
        };
        let c = LlmClient::new(Arc::new(CorruptBatches {
            inner: MockLlm::new(&GPT4_SIM, SimConfig::perfect(7)),
            drop_top: true,
            garble: false,
        }));
        let cfg = BatchConfig {
            max_items: 4,
            token_budget: 4096,
        };
        let (got, report) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert_eq!(got.len(), 8, "no document lost");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.as_ref().unwrap(), e, "order and values preserved");
        }
        // Every packed call drops its top item: two packs of 4 resolve 3
        // each; each missing item bisects straight to a singleton.
        assert_eq!(c.stats().batched_items, 6);
        assert_eq!(report.singleton_fallbacks, 2);
    }

    #[test]
    fn fully_malformed_batch_response_bisects_to_singletons() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(4);
        let c = LlmClient::new(Arc::new(CorruptBatches {
            inner: MockLlm::new(&GPT4_SIM, SimConfig::perfect(7)),
            drop_top: false,
            garble: true,
        }));
        let cfg = BatchConfig {
            max_items: 4,
            token_budget: 4096,
        };
        let (got, report) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert!(got.iter().all(Result::is_ok), "all items recovered");
        // 4-pack garbles → two 2-packs garble → four singletons succeed.
        assert_eq!(report.batch_sizes, vec![4, 2, 2]);
        assert_eq!(report.singleton_fallbacks, 4);
        assert_eq!(c.stats().batched_items, 0);
        assert_eq!(c.stats().parse_failures, 3, "one per garbled packed call");
    }

    #[test]
    fn warm_items_are_excluded_from_packs() {
        let params = obj! { "predicate" => "caused by wind" };
        let contexts = docs(6);
        let cache = Arc::new(crate::cache::LlmCallCache::with_capacity(64));
        let c = client(SimConfig::perfect(7)).with_cache(Arc::clone(&cache));
        let cfg = BatchConfig {
            max_items: 3,
            token_budget: 4096,
        };
        // Cold run: two packs of 3, every item memoized individually.
        let (first, r1) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert_eq!(r1.batch_sizes, vec![3, 3]);
        assert_eq!(cache.stats().inserts, 6);
        // Warm run: all six items hit; no packs, no model calls.
        let calls_before = c.stats().calls;
        let hits_before = cache.stats().hits;
        let (second, r2) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert_eq!(c.stats().calls, calls_before, "warm pass issues no calls");
        assert_eq!(cache.stats().hits - hits_before, 6);
        assert!(r2.batch_sizes.is_empty(), "warm items never packed");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // Half-warm run over a superset: only the cold half is packed.
        let mut more = contexts.clone();
        more.extend(docs(9).into_iter().skip(6));
        let hits_before = cache.stats().hits;
        let (third, r3) = run_batched(&c, TaskKind::Filter, &params, &more, 64, cfg);
        assert!(third.iter().all(Result::is_ok));
        assert_eq!(cache.stats().hits - hits_before, 6);
        assert_eq!(r3.batch_sizes, vec![3], "only the 3 cold items packed");
    }

    #[test]
    fn oversized_item_falls_back_to_singleton() {
        let params = obj! { "predicate" => "caused by wind" };
        let mut contexts = docs(3);
        contexts[1] = "enormous payload ".repeat(400);
        let c = client(SimConfig::perfect(7));
        let cfg = BatchConfig {
            max_items: 4,
            token_budget: 256,
        };
        let (got, report) = run_batched(&c, TaskKind::Filter, &params, &contexts, 64, cfg);
        assert!(got.iter().all(Result::is_ok));
        assert!(report.singleton_fallbacks >= 1, "{report:?}");
    }
}
