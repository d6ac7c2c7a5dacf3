//! `stream`: the store's durable write path. Seeded `DocStream` NTSB
//! documents go one at a time through `sycamore::Ingestor` (embedding on,
//! default `IngestConfig`) into a durable store (`Context::open_store`, WAL
//! fsync on) over an in-memory filesystem, as a closed loop. After every
//! tenth ack the benchmark runs one BM25 and one HNSW top-10 search on the
//! Ingestor's sidecars. After the stream it copies the filesystem image,
//! without a clean close, into fresh in-memory filesystems and times
//! `DocStore::open` on each copy. Bypasses the LLM and Luna.
//!
//! Traced run: tracing alternates by block of ten acks; each ack is a
//! `sycamore.ingest` span whose children are the VFS and embedder probes'
//! calls, so the ack's self time is the index work. Recovery is fully traced.

use crate::probe::{FsCounters, ProbeEmbedder, ProbeFs, VFS_READ_OPS, VFS_WRITE_OPS};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, percentile, quartiles};
use crate::trace::{totals, Recorder, Span};
use crate::{repeated_setup, run_units, RunCfg};
use aryn_core::{Document, MemFs, Result, Vfs};
use aryn_docgen::DocStream;
use aryn_index::{DocStore, StoreConfig, VectorIndex, WalConfig};
use aryn_llm::{EmbeddingModel, HashedBowEmbedder};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sycamore::{Context, IngestConfig, Ingestor};

pub struct Size {
    pub docs: usize,
    /// Acks between two searches (and tracing blocks).
    pub search_every: usize,
    /// Timed opens of each stream's crash image.
    pub opens: usize,
}

impl Size {
    pub const FULL: Size = Size {
        docs: 4000,
        search_every: 10,
        opens: 3,
    };
    #[cfg(test)]
    pub const TINY: Size = Size {
        docs: 600,
        search_every: 10,
        opens: 2,
    };
}

/// Virtual milliseconds between arrivals (drives only the modelled lag).
const INTERVAL_MS: f64 = 5.0;
const STORE_DIR: &str = "/stream/ntsb";
const QUERIES: &[&str] = &[
    "engine failure after takeoff",
    "wind gusts during landing",
    "fog reduced visibility",
    "fuel exhaustion forced landing",
    "icing conditions in cruise",
    "loss of control on approach",
    "landing gear collapse",
    "bird strike on climb",
];

fn embedder() -> HashedBowEmbedder {
    HashedBowEmbedder::new(256, 0xE3B)
}

struct Inputs {
    docs: Vec<(Document, f64)>,
    queries: Vec<(&'static str, Vec<f32>)>,
}

fn make_inputs(seed: u64, size: &Size) -> Inputs {
    let mut stream = DocStream::ntsb(seed, size.docs, INTERVAL_MS);
    let docs = std::iter::from_fn(|| stream.next_arrival()).collect();
    let e = embedder();
    let queries = QUERIES.iter().map(|q| (*q, e.embed(q))).collect();
    Inputs { docs, queries }
}

/// One stream's measurements.
#[derive(Default)]
struct Stream {
    ack_ms: Vec<f64>,
    traced: Vec<bool>,
    acked: BTreeSet<String>,
    refused: u64,
    loop_secs: f64,
    search_ms: Vec<f64>,
    keyword_ms: Vec<f64>,
    vector_ms: Vec<f64>,
    /// Searches that returned a document never acked, or (vector search)
    /// fewer than `min(10, acked)` neighbours.
    bad_searches: usize,
    sealed_shards: Vec<f64>,
    seals: usize,
    compactions: usize,
    compaction_stalls: Vec<f64>,
    lag_p99_ms: f64,
    bytes_written: u64,
    syncs: u64,
    open_ms: Vec<f64>,
    open_bytes_read: Vec<f64>,
    wal_replayed: usize,
    segments_recovered: usize,
    /// Recovered stores whose ids differ from the acked ids.
    bad_recoveries: usize,
    ingest_spans: Vec<Span>,
    recovery_spans: Vec<Span>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn run_stream(inputs: &Inputs, cfg: &RunCfg, size: &Size, rec: &Arc<Recorder>) -> Result<Stream> {
    let mut s = Stream::default();
    rec.set_enabled(false);
    let mem = Arc::new(MemFs::new());
    let fs = ProbeFs::new(mem.clone(), rec);
    let ctx = Context::with_embedder(ProbeEmbedder::new(Arc::new(embedder()), rec));
    ctx.set_vfs(fs.clone());
    ctx.open_store(
        "ntsb",
        STORE_DIR,
        StoreConfig::default(),
        WalConfig { fsync: true },
    )?;
    let mut ing = Ingestor::new(&ctx, "ntsb", IngestConfig::default());
    let shared = ing.shared();
    let docs = inputs.docs.clone();

    let t_loop = Instant::now();
    for (i, (doc, arrival_ms)) in docs.into_iter().enumerate() {
        let block = i / size.search_every;
        let traced = cfg.trace && block % 2 == 1;
        rec.set_enabled(traced);
        let id = doc.id.0.clone();
        let compactions = shared.compactions();
        let t = Instant::now();
        let acked = rec.scope("sycamore.ingest", &id, || ing.ingest_at(doc, arrival_ms));
        let ms = ms_since(t);
        s.ack_ms.push(ms);
        s.traced.push(traced);
        match acked {
            Ok(_) => {
                s.acked.insert(id);
            }
            Err(_) => s.refused += 1,
        }
        if shared.compactions() > compactions {
            s.compaction_stalls.push(ms);
        }
        if (i + 1) % size.search_every == 0 {
            let (text, vector) =
                &inputs.queries[(block + cfg.seed as usize) % inputs.queries.len()];
            let op = format!("search{block}");
            let t = Instant::now();
            let hits = rec.scope("aryn_index.keyword_search", &op, || {
                ing.keyword().search(text, 10)
            });
            let keyword_ms = ms_since(t);
            let t = Instant::now();
            let nearest = rec.scope("aryn_index.vector_search", &op, || {
                ing.vector().search(vector, 10)
            })?;
            let vector_ms = ms_since(t);
            let unknown = hits
                .iter()
                .map(|h| &h.key)
                .chain(nearest.iter().map(|n| &n.key));
            if nearest.len() != s.acked.len().min(10)
                || unknown.into_iter().any(|k| !s.acked.contains(k))
            {
                s.bad_searches += 1;
            }
            s.keyword_ms.push(keyword_ms);
            s.vector_ms.push(vector_ms);
            s.search_ms.push(keyword_ms + vector_ms);
            s.sealed_shards
                .push((ing.keyword().sealed_count() + ing.vector().sealed_count()) as f64);
        }
    }
    s.loop_secs = t_loop.elapsed().as_secs_f64();
    rec.set_enabled(false);
    s.ingest_spans = rec.take();
    s.seals = shared.seals();
    s.compactions = shared.compactions();
    s.lag_p99_ms = ing.report().p99_lag_ms;
    s.bytes_written = FsCounters::get(&fs.counters.bytes_written);
    s.syncs = FsCounters::get(&fs.counters.syncs);

    // The crash image: every file as the filesystem holds it now, with the
    // Ingestor and its store still open.
    let image: Vec<(String, Vec<u8>)> = mem
        .file_names()
        .into_iter()
        .map(|name| mem.read(Path::new(&name)).map(|data| (name, data)))
        .collect::<Result<_>>()?;
    drop(ing);
    drop(ctx);
    rec.set_enabled(cfg.trace);
    for k in 0..size.opens {
        let copy = MemFs::new();
        for (name, data) in &image {
            copy.write(Path::new(name), data)?;
        }
        let fs = ProbeFs::new(Arc::new(copy), rec);
        let t = Instant::now();
        let store = rec.scope("aryn_index.open", &format!("open{k}"), || {
            DocStore::open(STORE_DIR, fs.clone())
        })?;
        s.open_ms.push(ms_since(t));
        s.open_bytes_read
            .push(FsCounters::get(&fs.counters.bytes_read) as f64);
        let stats = store.stats();
        s.wal_replayed = stats.wal_replayed;
        s.segments_recovered = stats.segments_recovered;
        let ids: BTreeSet<String> = store.snapshot().scan().map(|d| d.id.0.clone()).collect();
        if ids != s.acked {
            s.bad_recoveries += 1;
        }
    }
    rec.set_enabled(false);
    s.recovery_spans = rec.take();
    Ok(s)
}

/// Median per-open totals of the recovery spans: `(read ms, decode ms)`.
fn open_breakdown(spans: &[Span]) -> (f64, f64) {
    let opens: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "aryn_index.open")
        .map(|s| (s.id, s))
        .collect();
    let mut read: BTreeMap<u64, f64> = opens.keys().map(|id| (*id, 0.0)).collect();
    for s in spans {
        if VFS_READ_OPS.contains(&s.name) {
            if let Some(r) = read.get_mut(&s.parent) {
                *r += s.dur_ns() as f64 / 1e6;
            }
        }
    }
    let reads: Vec<f64> = read.values().copied().collect();
    let decode: Vec<f64> = opens
        .iter()
        .map(|(id, s)| s.dur_ns() as f64 / 1e6 - read[id])
        .collect();
    (median(&reads), median(&decode))
}

pub fn run(cfg: &RunCfg, size: &Size) -> Result<Report> {
    let rec = Recorder::new();
    let mut setup = Vec::new();
    let inputs = repeated_setup(&mut setup, || Ok(make_inputs(cfg.seed, size)))?;
    let streams = run_units(cfg.seconds, 1, |_| run_stream(&inputs, cfg, size, &rec))?;

    let mut r = Report::default();
    let docs = size.docs as f64;
    r.attempted = (streams.len() * size.docs) as u64;
    r.failed = streams.iter().map(|s| s.refused).sum();
    for (k, s) in streams.iter().enumerate() {
        r.check(s.refused == 0 && s.acked.len() == size.docs, || {
            format!("stream {k}: {} of {} docs acked", s.acked.len(), size.docs)
        });
        r.check(s.bad_recoveries == 0, || {
            format!(
                "stream {k}: {} recovered stores differ from the acked ids",
                s.bad_recoveries
            )
        });
        r.check(s.bad_searches == 0, || {
            format!(
                "stream {k}: {} searches returned unacked docs or too few neighbours",
                s.bad_searches
            )
        });
    }
    let acks: Vec<f64> = streams
        .iter()
        .flat_map(|s| s.ack_ms.iter().copied())
        .collect();
    let all = |f: fn(&Stream) -> &Vec<f64>| -> Vec<f64> {
        streams.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let stall = median(
        &streams
            .iter()
            .map(|s| percentile(&s.compaction_stalls, 100.0))
            .collect::<Vec<_>>(),
    );
    let acked_total = streams.iter().map(|s| s.acked.len()).sum::<usize>() as f64;
    let bytes_per_doc = streams.iter().map(|s| s.bytes_written).sum::<u64>() as f64 / acked_total;

    if !cfg.trace {
        r.set("setup_s", median(&setup));
        r.set(
            "ops_per_s",
            acked_total / streams.iter().map(|s| s.loop_secs).sum::<f64>(),
        );
        r.set("op_p50_ms", percentile(&acks, 50.0));
        r.set("op_p99_ms", percentile(&acks, 99.0));
        r.set("peak_rss_mb", peak_rss_mb());
        let recovered = streams
            .iter()
            .filter(|s| s.bad_recoveries == 0)
            .map(|s| s.acked.len())
            .sum::<usize>();
        r.set(
            "correct_ratio",
            recovered as f64 / docs / streams.len() as f64,
        );
        let (q1, q3) = quartiles(&acks);
        r.note("op_q1_ms", q1, "ms", "wall");
        r.note("op_q3_ms", q3, "ms", "wall");
        r.note(
            "search_p50_ms",
            percentile(&all(|s| &s.search_ms), 50.0),
            "ms",
            "wall",
        );
        r.note("recover_ms", median(&all(|s| &s.open_ms)), "ms", "wall");
        r.note("write_bytes_per_doc", bytes_per_doc, "bytes", "count");
        r.note(
            "error_ratio",
            r.failed as f64 / r.attempted as f64,
            "ratio",
            "count",
        );
        r.note("aryn_index.compaction_stall_ms", stall, "ms", "wall");
        r.note("streams", streams.len() as f64, "count", "count");
        return Ok(r);
    }

    let ingest: Vec<Span> = streams
        .iter()
        .flat_map(|s| s.ingest_spans.iter().cloned())
        .collect();
    let recovery: Vec<Span> = streams
        .iter()
        .flat_map(|s| s.recovery_spans.iter().cloned())
        .collect();
    let t = totals(&ingest);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let traced_acks = get("sycamore.ingest").count.max(1) as f64;
    let vfs_write: f64 = VFS_WRITE_OPS.iter().map(|n| get(n).dur_ms()).sum();
    r.set("aryn_core.vfs.write_ms", vfs_write / traced_acks);
    r.set(
        "aryn_core.vfs.syncs",
        streams.iter().map(|s| s.syncs).sum::<u64>() as f64 / acked_total,
    );
    r.set("aryn_core.vfs.bytes_written", bytes_per_doc);
    r.set(
        "sycamore.ingest.index_ms",
        get("sycamore.ingest").self_ms() / traced_acks,
    );
    r.set(
        "aryn_llm.embed.ms",
        get("aryn_llm.embed").dur_ms() / traced_acks,
    );
    r.set(
        "sycamore.ingest.lag_p99_ms",
        median(&streams.iter().map(|s| s.lag_p99_ms).collect::<Vec<_>>()),
    );
    r.set(
        "aryn_index.seals",
        mean(&streams.iter().map(|s| s.seals as f64).collect::<Vec<_>>()),
    );
    r.set(
        "aryn_index.compactions",
        mean(
            &streams
                .iter()
                .map(|s| s.compactions as f64)
                .collect::<Vec<_>>(),
        ),
    );
    r.set("aryn_index.compaction_stall_ms", stall);
    r.set(
        "aryn_index.keyword_search.ms",
        median(&all(|s| &s.keyword_ms)),
    );
    r.set(
        "aryn_index.vector_search.ms",
        median(&all(|s| &s.vector_ms)),
    );
    r.set("aryn_index.sealed_shards", mean(&all(|s| &s.sealed_shards)));
    let (read_ms, decode_ms) = open_breakdown(&recovery);
    r.set("aryn_index.open.ms", median(&all(|s| &s.open_ms)));
    r.set("aryn_index.open.decode_ms", decode_ms);
    r.set("aryn_core.vfs.read_ms", read_ms);
    r.set(
        "aryn_core.vfs.bytes_read",
        median(&all(|s| &s.open_bytes_read)),
    );
    let last = streams.last().expect("at least one stream");
    r.set("aryn_index.wal_replayed", last.wal_replayed as f64);
    r.set(
        "aryn_index.segments_recovered",
        last.segments_recovered as f64,
    );
    let split = |traced: bool| -> Vec<f64> {
        streams
            .iter()
            .flat_map(|s| s.ack_ms.iter().zip(&s.traced))
            .filter(|(_, t)| **t == traced)
            .map(|(ms, _)| *ms)
            .collect()
    };
    let (on, off) = (median(&split(true)), median(&split(false)));
    r.set("bench.trace_overhead_ms", on - off);
    r.set("bench.trace_overhead_pct", 100.0 * (on - off) / off);
    r.set(
        "bench.spans_recorded",
        (ingest.len() + recovery.len()) as f64,
    );
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("stream-seed{}.spans.jsonl", cfg.seed));
        let spans: Vec<Span> = ingest.into_iter().chain(recovery).collect();
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
            seed: 11,
            seconds: 0.0,
            trace,
            out_dir: None,
        }
    }

    #[test]
    fn tiny_untraced_run_recovers_exactly_the_acked_ids() {
        let r = run(&cfg(false), &Size::TINY).expect("stream run");
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.get("correct_ratio"), Some(1.0));
        assert!(r.render(false).is_ok());
    }

    #[test]
    fn tiny_traced_run_attributes_ack_time() {
        let r = run(&cfg(true), &Size::TINY).expect("stream run");
        assert!(r.correct(), "{:?}", r.failures);
        assert!(r.get("aryn_core.vfs.bytes_written").expect("bytes") > 0.0);
        assert!(r.get("aryn_core.vfs.syncs").expect("syncs") >= 1.0);
        assert!(r.get("aryn_index.seals").expect("seals") >= 1.0);
        assert!(r.get("aryn_index.open.ms").expect("open") > 0.0);
        assert!(r.get("aryn_index.wal_replayed").expect("replayed") > 0.0);
        assert!(r.get("sycamore.ingest.index_ms").expect("index") > 0.0);
        assert!(r.render(true).is_ok());
    }
}
