//! `etl`: the batch DocParse path. Each pass builds a fresh `Context` over
//! raw lakes of NTSB and earnings reports and runs `partition(DetrSim) ->
//! extract_properties(gpt-4-sim) -> embed -> write_store` on each lake with
//! two morsel workers. Bypasses Luna and the WAL.
//!
//! Untraced passes time each document from its first stage to its last
//! ([`DocClock`]); those times are the op latencies. A pass has about 60
//! siblings in a run, too few for its p99 to be more than the slowest one.
//!
//! Traced run: passes alternate untraced (the fused pipeline) and traced,
//! where the stages are split by collecting between the public DocSet stages
//! so each is its own span, with the model and embedder probes' calls as
//! children. The traced-minus-untraced pass time is the tracing overhead.

use crate::probe::{ProbeEmbedder, ProbeModel};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{totals, Recorder};
use crate::{repeated_setup, run_units, RunCfg};
use aryn_core::{Result, Value};
use aryn_docgen::Corpus;
use aryn_llm::{HashedBowEmbedder, LlmClient, MockLlm, SimConfig, GPT4_SIM};
use aryn_partitioner::Detector;
use luna::{earnings_schema, ntsb_schema};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sycamore::{Context, DocSet, ExecStats, PartitionCfg, StealPolicy};

pub struct Size {
    pub n_ntsb: usize,
    pub n_earnings: usize,
    pub workers: usize,
}

impl Size {
    pub const FULL: Size = Size {
        n_ntsb: 500,
        n_earnings: 400,
        workers: 2,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        n_ntsb: 12,
        n_earnings: 10,
        workers: 2,
    };
}

/// The same embedder `Context::new` installs.
fn embedder() -> HashedBowEmbedder {
    HashedBowEmbedder::new(256, 0xE3B)
}

struct Lake {
    name: &'static str,
    corpus: Corpus,
    schema: Value,
    truth: BTreeMap<String, Value>,
}

fn make_lakes(seed: u64, size: &Size) -> Vec<Lake> {
    let lake = |name, corpus: Corpus, schema| {
        let truth = corpus
            .docs
            .iter()
            .map(|d| (d.id.clone(), d.record.clone()))
            .collect();
        Lake {
            name,
            corpus,
            schema,
            truth,
        }
    };
    vec![
        lake("ntsb", Corpus::ntsb(seed, size.n_ntsb), ntsb_schema()),
        lake(
            "earnings",
            Corpus::earnings(seed, size.n_earnings),
            earnings_schema(),
        ),
    ]
}

thread_local! {
    static DOC_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Times each document through a fused pipeline with two `map` stages, one
/// before the first stage and one after the last. A worker runs one
/// document through the whole fused op chain before it takes the next, so
/// the start a worker thread holds is its current document's. Were that to
/// change, starts would be lost, and the sample count check would fail.
#[derive(Clone, Default)]
struct DocClock {
    lat_ms: Arc<Mutex<Vec<f64>>>,
}

impl DocClock {
    fn start(ds: DocSet) -> DocSet {
        ds.map("bench.doc_start", |d| {
            DOC_START.with(|s| s.set(Some(Instant::now())));
            d
        })
    }

    fn stop(&self, ds: DocSet) -> DocSet {
        let lat_ms = Arc::clone(&self.lat_ms);
        ds.map("bench.doc_stop", move |d| {
            if let Some(t) = DOC_START.with(Cell::take) {
                lat_ms
                    .lock()
                    .expect("doc clock lock poisoned by a panicking worker")
                    .push(t.elapsed().as_secs_f64() * 1e3);
            }
            d
        })
    }

    fn take(&self) -> Vec<f64> {
        std::mem::take(
            &mut *self
                .lat_ms
                .lock()
                .expect("doc clock lock poisoned by a panicking worker"),
        )
    }
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    ms: f64,
    docs: usize,
    traced: bool,
    /// Extracted fields equal to the generating record, and fields checked.
    fields_ok: usize,
    fields: usize,
    missing_ids: usize,
    llm_calls: u64,
    llm_retries: u64,
    llm_usd: f64,
    /// Calls the model and embedder probes saw.
    model_calls: u64,
    embed_texts: u64,
    exec: ExecStats,
    /// Per-document pipeline latency (untraced passes only).
    doc_ms: Vec<f64>,
}

fn partition_cfg() -> PartitionCfg {
    PartitionCfg {
        detector: Detector::DetrSim,
        ..PartitionCfg::default()
    }
}

fn run_pass(
    lakes: &[Lake],
    seed: u64,
    size: &Size,
    rec: &Arc<Recorder>,
    traced: bool,
    k: usize,
) -> Result<Pass> {
    let model = ProbeModel::new(
        Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(seed))),
        rec,
    );
    let client = LlmClient::new(model.clone());
    let embed_probe = ProbeEmbedder::new(Arc::new(embedder()), rec);
    let ctx = Context::with_embedder(embed_probe.clone());
    ctx.set_parallelism(
        size.workers,
        ctx.exec_config().morsel_size,
        StealPolicy::Ring,
    );
    for lake in lakes {
        ctx.register_corpus(lake.name, &lake.corpus);
    }
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let op = format!("pass{k}");
    rec.set_enabled(traced);
    let clock = DocClock::default();
    let t = Instant::now();
    for lake in lakes {
        let read = ctx.read_lake(lake.name)?;
        pass.docs += if traced {
            let source = read.partition(lake.name, partition_cfg());
            let (docs, s1) =
                rec.scope("aryn_partitioner.partition", &op, || source.collect_stats())?;
            let (docs, s2) = rec.scope("sycamore.extract", &op, || {
                ctx.read_docs(docs)
                    .extract_properties(&client, lake.schema.clone())
                    .collect_stats()
            })?;
            let (docs, s3) = rec.scope("sycamore.embed", &op, || {
                ctx.read_docs(docs).embed().collect_stats()
            })?;
            pass.exec
                .stages
                .extend(s1.stages.into_iter().chain(s2.stages).chain(s3.stages));
            rec.scope("sycamore.write_store", &op, || {
                ctx.read_docs(docs).write_store(lake.name)
            })?
        } else {
            let fused = DocClock::start(read)
                .partition(lake.name, partition_cfg())
                .extract_properties(&client, lake.schema.clone())
                .embed();
            clock.stop(fused).write_store(lake.name)?
        };
    }
    pass.ms = t.elapsed().as_secs_f64() * 1e3;
    pass.doc_ms = clock.take();
    rec.set_enabled(false);

    let stats = client.stats();
    pass.llm_calls = stats.calls;
    pass.llm_retries = stats.retries;
    pass.llm_usd = stats.usage.cost_usd;
    pass.model_calls = model.calls.load(Ordering::Relaxed);
    pass.embed_texts = embed_probe.texts.load(Ordering::Relaxed);
    for lake in lakes {
        ctx.with_store(lake.name, |store| {
            for (id, record) in &lake.truth {
                let Some(doc) = store.get(id) else {
                    pass.missing_ids += 1;
                    continue;
                };
                for field in lake.schema.as_object().into_iter().flat_map(|o| o.keys()) {
                    pass.fields += 1;
                    let got = doc.properties.get(field);
                    if got
                        .zip(record.get(field))
                        .is_some_and(|(a, b)| a.loose_eq(b))
                    {
                        pass.fields_ok += 1;
                    }
                }
            }
            pass.missing_ids += store.len().saturating_sub(lake.truth.len());
        })?;
    }
    Ok(pass)
}

pub fn run(cfg: &RunCfg, size: &Size) -> Result<Report> {
    let rec = Recorder::new();
    let mut setup = Vec::new();
    let lakes = repeated_setup(&mut setup, || Ok(make_lakes(cfg.seed, size)))?;
    // Traced runs alternate untraced and traced passes, so they need two.
    let min_passes = if cfg.trace { 2 } else { 1 };
    let passes = run_units(cfg.seconds, min_passes, |k| {
        run_pass(&lakes, cfg.seed, size, &rec, cfg.trace && k % 2 == 1, k)
    })?;

    let mut r = Report::default();
    let expected_docs: usize = lakes.iter().map(|l| l.truth.len()).sum();
    let first = &passes[0];
    let ratio = first.fields_ok as f64 / first.fields.max(1) as f64;
    for (k, p) in passes.iter().enumerate() {
        r.check(p.missing_ids == 0 && p.docs == expected_docs, || {
            format!(
                "pass {k}: wrote {} of {expected_docs} docs, {} ids missing or extra",
                p.docs, p.missing_ids
            )
        });
        r.check(p.traced || p.doc_ms.len() == p.docs, || {
            format!(
                "pass {k}: timed {} of {} docs through the pipeline",
                p.doc_ms.len(),
                p.docs
            )
        });
        r.check(p.fields_ok == first.fields_ok, || {
            format!(
                "pass {k}: {} fields correct, first pass {}",
                p.fields_ok, first.fields_ok
            )
        });
    }
    r.attempted = (passes.len() * expected_docs) as u64;
    r.failed = passes.iter().map(|p| p.missing_ids as u64).sum();
    let docs = expected_docs.max(1) as f64;

    if !cfg.trace {
        let pass_ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
        let doc_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.doc_ms.iter().copied())
            .collect();
        let total_s = pass_ms.iter().sum::<f64>() / 1e3;
        r.set("setup_s", median(&setup));
        r.set(
            "ops_per_s",
            passes.iter().map(|p| p.docs).sum::<usize>() as f64 / total_s,
        );
        r.set("op_p50_ms", percentile(&doc_ms, 50.0));
        r.set("op_p99_ms", percentile(&doc_ms, 99.0));
        r.set("peak_rss_mb", peak_rss_mb());
        r.set("correct_ratio", ratio);
        let (q1, q3) = quartiles(&doc_ms);
        r.note("op_q1_ms", q1, "ms", "wall");
        r.note("op_q3_ms", q3, "ms", "wall");
        r.note("pass_p50_ms", percentile(&pass_ms, 50.0), "ms", "wall");
        r.note("pass_max_ms", percentile(&pass_ms, 100.0), "ms", "wall");
        r.note(
            "llm_calls_per_op",
            first.llm_calls as f64 / docs,
            "count",
            "count",
        );
        r.note(
            "embedder_calls_per_op",
            first.embed_texts as f64 / docs,
            "count",
            "count",
        );
        r.note(
            "llm_usd_per_op",
            first.llm_usd / docs,
            "usd.virtual",
            "virtual",
        );
        r.note(
            "error_ratio",
            r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
            "count",
        );
        r.note("passes", passes.len() as f64, "count", "count");
        return Ok(r);
    }

    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let n = traced.len() as f64;
    let spans = rec.take();
    let t = totals(&spans);
    let per_pass = |name: &str| t.get(name).map_or(0.0, |x| x.dur_ms() / n);
    let self_per_pass = |name: &str| t.get(name).map_or(0.0, |x| x.self_ms() / n);
    r.set(
        "aryn_partitioner.partition.ms",
        per_pass("aryn_partitioner.partition"),
    );
    r.set("sycamore.extract.ms", per_pass("sycamore.extract"));
    r.set(
        "sycamore.extract.self_ms",
        self_per_pass("sycamore.extract"),
    );
    r.set("aryn_llm.model.ms", per_pass("aryn_llm.model"));
    r.set("aryn_llm.embed.ms", per_pass("aryn_llm.embed"));
    r.set("sycamore.write_store.ms", per_pass("sycamore.write_store"));
    let model_calls: u64 = passes.iter().map(|p| p.model_calls).sum();
    r.set(
        "aryn_llm.model.calls",
        model_calls as f64 / (passes.len() as f64 * docs),
    );
    let calls: u64 = passes.iter().map(|p| p.llm_calls).sum();
    let retries: u64 = passes.iter().map(|p| p.llm_retries).sum();
    r.set("aryn_llm.retry_ratio", retries as f64 / calls.max(1) as f64);
    r.set(
        "aryn_llm.calls_per_op",
        calls as f64 / (passes.len() as f64 * docs),
    );
    r.set(
        "aryn_llm.usd_per_op",
        passes.iter().map(|p| p.llm_usd).sum::<f64>() / (passes.len() as f64 * docs),
    );
    let (mut busy, mut capacity, mut steals, mut critical) = (0.0, 0.0, 0usize, 0.0);
    for p in &traced {
        for s in &p.exec.stages {
            busy += s.workers.iter().map(|w| w.busy_ms).sum::<f64>();
            capacity += s.workers.len() as f64 * s.wall_ms;
            steals += s.steals();
            critical += s.critical_path_ms;
        }
    }
    r.set(
        "sycamore.exec.busy_share",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    r.set("sycamore.exec.steals", steals as f64 / n);
    r.set("sycamore.exec.critical_path_ms", critical / n);
    let ms = |ps: &[&Pass]| median(&ps.iter().map(|p| p.ms).collect::<Vec<_>>());
    let (traced_ms, untraced_ms) = (ms(&traced), ms(&untraced));
    r.set("bench.trace_overhead_ms", traced_ms - untraced_ms);
    r.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    r.set("bench.spans_recorded", spans.len() as f64);
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("etl-seed{}.spans.jsonl", cfg.seed));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(trace: bool) -> RunCfg {
        RunCfg {
            seed: 3,
            seconds: 0.0,
            trace,
            out_dir: None,
        }
    }

    #[test]
    fn tiny_untraced_run_lands_every_doc() {
        let r = run(&cfg(false), &Size::TINY).expect("etl run");
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.attempted, 22);
        assert!(r.get("correct_ratio").expect("ratio") > 0.5);
        assert!(r.render(false).is_ok());
    }

    #[test]
    fn tiny_traced_run_splits_stages() {
        let r = run(&cfg(true), &Size::TINY).expect("etl run");
        assert!(r.correct(), "{:?}", r.failures);
        let extract = r.get("sycamore.extract.ms").expect("extract");
        let own = r.get("sycamore.extract.self_ms").expect("self");
        assert!(extract > 0.0 && own <= extract);
        assert!(r.get("aryn_llm.model.ms").expect("model") > 0.0);
        assert!(r.get("aryn_llm.model.calls").expect("calls") >= 1.0);
        assert!(r.get("aryn_partitioner.partition.ms").expect("partition") > 0.0);
        assert!(r.render(true).is_ok());
    }
}
