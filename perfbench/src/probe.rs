//! Outside-in probes: wrappers around the layers' public traits that count
//! calls and bytes (always) and, while the recorder is enabled, time each
//! call as a leaf span. Installed through the layers' own seams:
//! `LanguageModel` via `LlmClient::new`, `EmbeddingModel` via
//! `Context::with_embedder`, `Vfs` via `Context::set_vfs` and
//! `DocStore::open`.

use crate::trace::Recorder;
use aryn_core::{Result, Vfs};
use aryn_llm::{EmbeddingModel, LanguageModel, LlmRequest, LlmResponse};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runs `f`, recording it as a leaf span named `name` when tracing is on.
fn timed<T>(rec: &Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !rec.enabled() {
        return f();
    }
    let start = rec.now_ns();
    let out = f();
    rec.leaf(name, start, rec.now_ns());
    out
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Wraps a [`LanguageModel`]; spans are named `aryn_llm.model`.
pub struct ProbeModel {
    inner: Arc<dyn LanguageModel>,
    rec: Arc<Recorder>,
    pub calls: AtomicU64,
}

impl ProbeModel {
    pub fn new(inner: Arc<dyn LanguageModel>, rec: &Arc<Recorder>) -> Arc<ProbeModel> {
        Arc::new(ProbeModel {
            inner,
            rec: Arc::clone(rec),
            calls: AtomicU64::new(0),
        })
    }
}

impl LanguageModel for ProbeModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn generate(&self, req: &LlmRequest) -> Result<LlmResponse> {
        bump(&self.calls, 1);
        timed(&self.rec, "aryn_llm.model", || self.inner.generate(req))
    }
}

/// Wraps an [`EmbeddingModel`]; spans are named `aryn_llm.embed`.
pub struct ProbeEmbedder {
    inner: Arc<dyn EmbeddingModel>,
    rec: Arc<Recorder>,
    pub texts: AtomicU64,
}

impl ProbeEmbedder {
    pub fn new(inner: Arc<dyn EmbeddingModel>, rec: &Arc<Recorder>) -> Arc<ProbeEmbedder> {
        Arc::new(ProbeEmbedder {
            inner,
            rec: Arc::clone(rec),
            texts: AtomicU64::new(0),
        })
    }
}

impl EmbeddingModel for ProbeEmbedder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        bump(&self.texts, 1);
        timed(&self.rec, "aryn_llm.embed", || self.inner.embed(text))
    }

    fn embed_batch(&self, texts: &[String]) -> Vec<Vec<f32>> {
        bump(&self.texts, texts.len() as u64);
        timed(&self.rec, "aryn_llm.embed", || {
            self.inner.embed_batch(texts)
        })
    }
}

/// Byte and sync counters of a [`ProbeFs`].
#[derive(Debug, Default)]
pub struct FsCounters {
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
    pub syncs: AtomicU64,
}

impl FsCounters {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Wraps a [`Vfs`]; spans are named `aryn_core.vfs.<op>`.
#[derive(Debug)]
pub struct ProbeFs {
    inner: Arc<dyn Vfs>,
    rec: Arc<Recorder>,
    pub counters: FsCounters,
}

impl ProbeFs {
    pub fn new(inner: Arc<dyn Vfs>, rec: &Arc<Recorder>) -> Arc<ProbeFs> {
        Arc::new(ProbeFs {
            inner,
            rec: Arc::clone(rec),
            counters: FsCounters::default(),
        })
    }

    fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        timed(&self.rec, name, f)
    }
}

impl Vfs for ProbeFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let out = self.op("aryn_core.vfs.read", || self.inner.read(path));
        if let Ok(data) = &out {
            bump(&self.counters.bytes_read, data.len() as u64);
        }
        out
    }

    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        bump(&self.counters.bytes_written, data.len() as u64);
        self.op("aryn_core.vfs.write", || self.inner.write(path, data))
    }

    fn append(&self, path: &Path, data: &[u8]) -> Result<()> {
        bump(&self.counters.bytes_written, data.len() as u64);
        self.op("aryn_core.vfs.append", || self.inner.append(path, data))
    }

    fn sync(&self, path: &Path) -> Result<()> {
        bump(&self.counters.syncs, 1);
        self.op("aryn_core.vfs.sync", || self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.op("aryn_core.vfs.rename", || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.op("aryn_core.vfs.remove", || self.inner.remove(path))
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.op("aryn_core.vfs.create_dir_all", || {
            self.inner.create_dir_all(path)
        })
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.op("aryn_core.vfs.list", || self.inner.list(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.op("aryn_core.vfs.exists", || self.inner.exists(path))
    }
}

/// Span names of VFS calls that write or make writes durable.
pub const VFS_WRITE_OPS: &[&str] = &[
    "aryn_core.vfs.write",
    "aryn_core.vfs.append",
    "aryn_core.vfs.sync",
    "aryn_core.vfs.rename",
    "aryn_core.vfs.remove",
];

/// Span names of VFS calls that read.
pub const VFS_READ_OPS: &[&str] = &["aryn_core.vfs.read", "aryn_core.vfs.list"];

#[cfg(test)]
mod tests {
    use super::*;
    use aryn_core::MemFs;
    use aryn_llm::{HashedBowEmbedder, MockLlm, SimConfig, GPT4_SIM};

    #[test]
    fn probes_count_always_and_span_only_when_enabled() {
        let rec = Recorder::new();
        let fs = ProbeFs::new(Arc::new(MemFs::new()), &rec);
        fs.append(Path::new("/d/wal"), b"abc").expect("append");
        rec.set_enabled(true);
        fs.append(Path::new("/d/wal"), b"de").expect("append");
        fs.sync(Path::new("/d/wal")).expect("sync");
        assert_eq!(fs.read(Path::new("/d/wal")).expect("read"), b"abcde");
        assert_eq!(FsCounters::get(&fs.counters.bytes_written), 5);
        assert_eq!(FsCounters::get(&fs.counters.bytes_read), 5);
        assert_eq!(FsCounters::get(&fs.counters.syncs), 1);
        let names: Vec<_> = rec.take().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "aryn_core.vfs.append",
                "aryn_core.vfs.sync",
                "aryn_core.vfs.read"
            ]
        );

        let emb = ProbeEmbedder::new(Arc::new(HashedBowEmbedder::new(16, 1)), &rec);
        assert_eq!(emb.embed("wind gusts").len(), 16);
        assert_eq!(emb.embed_batch(&["a".into(), "b".into()]).len(), 2);
        assert_eq!(emb.texts.load(Ordering::Relaxed), 3);

        let model = ProbeModel::new(
            Arc::new(MockLlm::new(&GPT4_SIM, SimConfig::with_seed(1))),
            &rec,
        );
        assert_eq!(model.name(), "gpt-4-sim");
        let _ = model.generate(&LlmRequest::new("Summarize: wind gusts on landing."));
        assert_eq!(model.calls.load(Ordering::Relaxed), 1);
        let spans = rec.take();
        assert_eq!(
            spans.iter().filter(|s| s.name == "aryn_llm.embed").count(),
            2
        );
        assert_eq!(
            spans.iter().filter(|s| s.name == "aryn_llm.model").count(),
            1
        );
    }
}
