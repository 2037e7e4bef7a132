//! Bench-side tracing: a timing decorator for read-stack layers and exact
//! percentiles over per-batch samples.

use emlio_obs::{HistSnapshot, LogHistogram};
use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource};
use emlio_tfrecord::RecordError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one layer of the read stack did, seen from the layer above it.
#[derive(Default)]
pub struct LayerTimer {
    blocks: AtomicU64,
    errors: AtomicU64,
    bytes: AtomicU64,
    /// One sample per call into the layer (a batched call is one sample).
    calls: LogHistogram,
}

/// Totals of a [`LayerTimer`].
pub struct LayerTotals {
    /// Blocks the layer returned.
    pub blocks: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Bytes the layer returned.
    pub bytes: u64,
    /// Per-call latency, nanoseconds.
    pub calls: HistSnapshot,
}

impl LayerTimer {
    /// Record one call that started at `t0` and returned `reads`, or
    /// failed when `None`.
    fn observe(&self, t0: Instant, reads: Option<&[BlockRead]>) {
        self.calls.record(t0.elapsed().as_nanos() as u64);
        match reads {
            Some(reads) => {
                let bytes: usize = reads.iter().map(|r| r.data.len()).sum();
                self.blocks.fetch_add(reads.len() as u64, Ordering::Relaxed);
                self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current totals.
    pub fn totals(&self) -> LayerTotals {
        LayerTotals {
            blocks: self.blocks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            calls: self.calls.snapshot(),
        }
    }
}

/// Times every read that passes through it into a shared [`LayerTimer`]
/// and otherwise forwards unchanged, batched entry points included, so the
/// layer below still coalesces.
pub struct TimedSource {
    inner: Arc<dyn RangeSource>,
    timer: Arc<LayerTimer>,
}

impl TimedSource {
    /// Wrap `inner`, recording into `timer`.
    pub fn wrap(inner: Arc<dyn RangeSource>, timer: &Arc<LayerTimer>) -> Arc<dyn RangeSource> {
        Arc::new(TimedSource {
            inner,
            timer: timer.clone(),
        })
    }
}

impl RangeSource for TimedSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let t0 = Instant::now();
        let read = self.inner.read_block(key);
        self.timer
            .observe(t0, read.as_ref().ok().map(std::slice::from_ref));
        read
    }

    fn read_blocks(&self, keys: &[BlockKey]) -> Result<Vec<BlockRead>, RecordError> {
        let t0 = Instant::now();
        let reads = self.inner.read_blocks(keys);
        self.timer
            .observe(t0, reads.as_ref().ok().map(Vec::as_slice));
        reads
    }

    fn prefetch_block(&self, key: &BlockKey) -> Result<bool, RecordError> {
        self.inner.prefetch_block(key)
    }

    fn prefetch_blocks(&self, keys: &[BlockKey]) -> Result<usize, RecordError> {
        self.inner.prefetch_blocks(keys)
    }

    fn describe(&self) -> String {
        format!("timed -> {}", self.inner.describe())
    }
}

/// Exact quantile `q` of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}
