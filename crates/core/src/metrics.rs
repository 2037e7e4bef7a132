//! Data-path counters shared between daemon, receiver, and reports.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One registered snapshot-time reconciler.
type Provider = Box<dyn Fn(&DataPathMetrics) + Send + Sync>;

/// Callbacks that pull counters from their sources of truth (cache, pool)
/// right before a snapshot, so mid-epoch snapshots are never stale.
#[derive(Default)]
pub struct Providers(Mutex<Vec<Provider>>);

impl fmt::Debug for Providers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0.lock().map(|v| v.len()).unwrap_or(0);
        write!(f, "Providers({n})")
    }
}

/// Lock the provider list even when poisoned: a panicking provider (e.g.
/// a fault-injection hook blowing up mid-callback) must not take every
/// later snapshot down with it — the `Vec` is never left mid-mutation.
fn lock_providers(p: &Providers) -> std::sync::MutexGuard<'_, Vec<Provider>> {
    p.0.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Monotonic counters for one side of the data path.
#[derive(Debug, Default)]
pub struct DataPathMetrics {
    /// Batches moved.
    pub batches: AtomicU64,
    /// Samples moved.
    pub samples: AtomicU64,
    /// Payload bytes moved.
    pub bytes: AtomicU64,
    /// Nanoseconds spent in storage reads (daemon side).
    pub read_nanos: AtomicU64,
    /// Nanoseconds spent serializing/deserializing.
    pub codec_nanos: AtomicU64,
    /// Positioned storage reads actually issued (demand misses plus
    /// prefetches; every batch when no cache is configured).
    pub storage_reads: AtomicU64,
    /// Batch reads served from the shard cache.
    pub cache_hits: AtomicU64,
    /// Batch reads that missed the shard cache (0 ⇒ cache disabled or
    /// perfectly warm).
    pub cache_misses: AtomicU64,
    /// Blocks evicted from the cache's RAM tier.
    pub cache_evictions: AtomicU64,
    /// Cache hits served by the disk spill tier (subset of `cache_hits`).
    pub cache_disk_hits: AtomicU64,
    /// Blocks re-admitted from a persistent spill index at daemon start.
    pub cache_readmitted: AtomicU64,
    /// Storage bytes *not* re-read thanks to cache hits.
    pub cache_bytes_saved: AtomicU64,
    /// Block buffers handed out by allocating fresh memory (pool misses).
    pub pool_alloc: AtomicU64,
    /// Block buffers handed out from the pool's free lists (no allocation).
    pub pool_reuse: AtomicU64,
    /// Batch reads served from RAM-tier cache hits without copying a single
    /// payload byte (subset of `cache_hits`; disk-tier hits re-enter RAM
    /// and are excluded).
    pub zero_copy_hits: AtomicU64,
    /// Spill-file writes that failed; each drops the block to absent
    /// (demand re-fetches it from storage).
    pub cache_spill_failures: AtomicU64,
    /// Spill orders queued or in flight on the background writer right now
    /// (gauge, not monotonic; 0 without a disk tier).
    pub cache_spill_queue_depth: AtomicU64,
    /// Backpressure events at the spill queue: evictor blocks on a full
    /// queue.
    pub cache_spill_backpressure: AtomicU64,
    /// Disk blocks promoted into RAM by cache warm-start.
    pub cache_warm_promoted: AtomicU64,
    /// Blocks served by a peer daemon's cache tier or a fleet flight
    /// handoff (cooperative fleet; 0 when running solo).
    pub peer_hits: AtomicU64,
    /// Peer fetches the owner answered but did not hold resident.
    pub peer_misses: AtomicU64,
    /// Peer-owned reads that degraded to direct storage (owner down,
    /// detached, or past the peer timeout).
    pub peer_fallbacks: AtomicU64,
    /// Payload bytes that arrived from peers instead of shared storage.
    pub peer_bytes: AtomicU64,
    /// Transient storage-read failures absorbed by the retry layer
    /// (each one re-issued after backoff; 0 ⇒ retries disabled or a
    /// perfectly healthy storage path).
    pub io_retries: AtomicU64,
    /// Storage operations that exhausted the retry budget and surfaced
    /// an error to the caller. Nonzero here under injected-transient-only
    /// fault schedules means the budget is too small.
    pub io_giveups: AtomicU64,
    /// Nanoseconds send workers spent blocked on a full socket queue.
    pub send_blocked_nanos: AtomicU64,
    /// Wall-clock nanoseconds of the most recent `serve()` call.
    pub serve_wall_nanos: AtomicU64,
    /// Send workers used by the most recent `serve()` call.
    pub serve_workers: AtomicU64,
    /// Whether a shard cache is configured at all — distinguishes
    /// "cache disabled" from "cache enabled but 0% hits".
    pub cache_enabled: AtomicBool,
    /// Registered snapshot-time reconcilers (not a counter).
    pub providers: Providers,
}

impl DataPathMetrics {
    /// Fresh shared counters.
    pub fn shared() -> Arc<DataPathMetrics> {
        Arc::new(DataPathMetrics::default())
    }

    /// Record one batch of `samples` totalling `bytes`.
    pub fn record_batch(&self, samples: u64, bytes: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(samples, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Add storage-read time.
    pub fn add_read_nanos(&self, nanos: u64) {
        self.read_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Add codec time.
    pub fn add_codec_nanos(&self, nanos: u64) {
        self.codec_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one positioned storage read taking `nanos`.
    pub fn record_storage_read(&self, nanos: u64) {
        self.storage_reads.fetch_add(1, Ordering::Relaxed);
        self.add_read_nanos(nanos);
    }

    /// Record a batch read served from the cache, saving `bytes` of
    /// storage traffic.
    pub fn record_cache_hit(&self, bytes: u64) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_bytes_saved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a batch read that missed the cache.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Reconcile the eviction counter with the cache's own total (the
    /// cache is the source of truth; evictions happen off the data path).
    pub fn set_cache_evictions(&self, total: u64) {
        self.cache_evictions.store(total, Ordering::Relaxed);
    }

    /// Reconcile the disk-tier hit counter with the cache's own total.
    pub fn set_cache_disk_hits(&self, total: u64) {
        self.cache_disk_hits.store(total, Ordering::Relaxed);
    }

    /// Reconcile the persistent-tier re-admission counter with the
    /// cache's own total.
    pub fn set_cache_readmitted(&self, total: u64) {
        self.cache_readmitted.store(total, Ordering::Relaxed);
    }

    /// Reconcile the buffer-pool counters with the pool's own totals (the
    /// pool is the source of truth; recycling happens off the data path).
    pub fn set_pool_counters(&self, alloc: u64, reuse: u64) {
        self.pool_alloc.store(alloc, Ordering::Relaxed);
        self.pool_reuse.store(reuse, Ordering::Relaxed);
    }

    /// Reconcile the zero-copy serve counter (RAM-tier cache hits).
    pub fn set_zero_copy_hits(&self, total: u64) {
        self.zero_copy_hits.store(total, Ordering::Relaxed);
    }

    /// Reconcile the spill-write failure counter with the cache's own
    /// total.
    pub fn set_cache_spill_failures(&self, total: u64) {
        self.cache_spill_failures.store(total, Ordering::Relaxed);
    }

    /// Publish the spill queue's current depth (gauge).
    pub fn set_cache_spill_queue_depth(&self, depth: u64) {
        self.cache_spill_queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Reconcile the spill backpressure counter (blocked-evictor waits)
    /// with the cache's own total.
    pub fn set_cache_spill_backpressure(&self, total: u64) {
        self.cache_spill_backpressure
            .store(total, Ordering::Relaxed);
    }

    /// Reconcile the warm-start promotion counter with the cache's own
    /// total.
    pub fn set_cache_warm_promoted(&self, total: u64) {
        self.cache_warm_promoted.store(total, Ordering::Relaxed);
    }

    /// Mark whether a shard cache is configured (resolves the 0.0
    /// hit-rate ambiguity between "disabled" and "all misses").
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Reconcile the peer-tier counters with the peer layer's own stats
    /// (the `PeerSource` is the source of truth; register a provider so
    /// mid-epoch snapshots stay fresh).
    pub fn set_peer_counters(&self, hits: u64, misses: u64, fallbacks: u64, bytes: u64) {
        self.peer_hits.store(hits, Ordering::Relaxed);
        self.peer_misses.store(misses, Ordering::Relaxed);
        self.peer_fallbacks.store(fallbacks, Ordering::Relaxed);
        self.peer_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Reconcile the storage-retry counters with the retry layer's own
    /// stats (the `RetrySource` is the source of truth; register a
    /// provider so mid-epoch snapshots stay fresh).
    pub fn set_retry_counters(&self, retries: u64, giveups: u64) {
        self.io_retries.store(retries, Ordering::Relaxed);
        self.io_giveups.store(giveups, Ordering::Relaxed);
    }

    /// Add time a send worker spent blocked on a full socket queue.
    pub fn add_send_blocked_nanos(&self, nanos: u64) {
        self.send_blocked_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record the wall time and worker count of a completed `serve()`.
    pub fn set_serve_wall(&self, wall_nanos: u64, workers: u64) {
        self.serve_wall_nanos.store(wall_nanos, Ordering::Relaxed);
        self.serve_workers.store(workers, Ordering::Relaxed);
    }

    /// Register a callback run at the start of every [`snapshot`] to pull
    /// counters from their sources of truth (cache stats, pool counters).
    /// Keeps mid-epoch snapshots — the sampler thread's, a bench probe's —
    /// as fresh as end-of-serve ones.
    ///
    /// [`snapshot`]: DataPathMetrics::snapshot
    pub fn register_provider<F>(&self, f: F)
    where
        F: Fn(&DataPathMetrics) + Send + Sync + 'static,
    {
        lock_providers(&self.providers).push(Box::new(f));
    }

    /// Plain-value copy of every counter. Runs registered providers first,
    /// so off-path counters (evictions, pool reuse) are current even when
    /// sampled mid-epoch.
    pub fn snapshot(&self) -> MetricsSnapshot {
        {
            let providers = lock_providers(&self.providers);
            for p in providers.iter() {
                p(self);
            }
        }
        MetricsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            read_nanos: self.read_nanos.load(Ordering::Relaxed),
            codec_nanos: self.codec_nanos.load(Ordering::Relaxed),
            storage_reads: self.storage_reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_disk_hits: self.cache_disk_hits.load(Ordering::Relaxed),
            cache_readmitted: self.cache_readmitted.load(Ordering::Relaxed),
            cache_bytes_saved: self.cache_bytes_saved.load(Ordering::Relaxed),
            pool_alloc: self.pool_alloc.load(Ordering::Relaxed),
            pool_reuse: self.pool_reuse.load(Ordering::Relaxed),
            zero_copy_hits: self.zero_copy_hits.load(Ordering::Relaxed),
            cache_spill_failures: self.cache_spill_failures.load(Ordering::Relaxed),
            cache_spill_queue_depth: self.cache_spill_queue_depth.load(Ordering::Relaxed),
            cache_spill_backpressure: self.cache_spill_backpressure.load(Ordering::Relaxed),
            cache_warm_promoted: self.cache_warm_promoted.load(Ordering::Relaxed),
            peer_hits: self.peer_hits.load(Ordering::Relaxed),
            peer_misses: self.peer_misses.load(Ordering::Relaxed),
            peer_fallbacks: self.peer_fallbacks.load(Ordering::Relaxed),
            peer_bytes: self.peer_bytes.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            io_giveups: self.io_giveups.load(Ordering::Relaxed),
            send_blocked_nanos: self.send_blocked_nanos.load(Ordering::Relaxed),
            serve_wall_nanos: self.serve_wall_nanos.load(Ordering::Relaxed),
            serve_workers: self.serve_workers.load(Ordering::Relaxed),
            cache_enabled: self.cache_enabled.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of [`DataPathMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches moved.
    pub batches: u64,
    /// Samples moved.
    pub samples: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Nanoseconds spent in storage reads.
    pub read_nanos: u64,
    /// Nanoseconds spent in the codec.
    pub codec_nanos: u64,
    /// Positioned storage reads issued.
    pub storage_reads: u64,
    /// Batch reads served from the shard cache.
    pub cache_hits: u64,
    /// Batch reads that missed the shard cache.
    pub cache_misses: u64,
    /// Blocks evicted from the cache RAM tier.
    pub cache_evictions: u64,
    /// Cache hits served by the disk spill tier.
    pub cache_disk_hits: u64,
    /// Blocks re-admitted from a persistent spill index.
    pub cache_readmitted: u64,
    /// Storage bytes not re-read thanks to hits.
    pub cache_bytes_saved: u64,
    /// Block buffers served by fresh allocation.
    pub pool_alloc: u64,
    /// Block buffers served from pool free lists.
    pub pool_reuse: u64,
    /// Batch reads served zero-copy from RAM-tier cache hits.
    pub zero_copy_hits: u64,
    /// Spill-file writes that failed (block dropped to absent).
    pub cache_spill_failures: u64,
    /// Spill orders queued or in flight on the background writer (gauge).
    pub cache_spill_queue_depth: u64,
    /// Spill-queue backpressure events (evictor waits on a full queue).
    pub cache_spill_backpressure: u64,
    /// Disk blocks promoted into RAM by cache warm-start.
    pub cache_warm_promoted: u64,
    /// Blocks served by a peer daemon or a fleet flight handoff.
    pub peer_hits: u64,
    /// Peer fetches the owner answered but did not hold resident.
    pub peer_misses: u64,
    /// Peer-owned reads that degraded to direct storage.
    pub peer_fallbacks: u64,
    /// Payload bytes that arrived from peers instead of shared storage.
    pub peer_bytes: u64,
    /// Transient storage-read failures absorbed by the retry layer.
    pub io_retries: u64,
    /// Storage operations that exhausted the retry budget.
    pub io_giveups: u64,
    /// Nanoseconds send workers spent blocked on a full socket queue.
    pub send_blocked_nanos: u64,
    /// Wall-clock nanoseconds of the most recent serve.
    pub serve_wall_nanos: u64,
    /// Send workers used by the most recent serve.
    pub serve_workers: u64,
    /// Whether a shard cache was configured.
    pub cache_enabled: bool,
}

impl MetricsSnapshot {
    /// Fraction of cached-path batch reads that hit, in `[0, 1]`.
    /// `None` when no cache is configured or it never saw traffic —
    /// previously both cases reported an ambiguous `0.0`.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if !self.cache_enabled || total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }

    /// One-line cache report for service output. Says `disabled` outright
    /// instead of dressing an unconfigured cache up as a 0% hit rate.
    pub fn cache_summary(&self) -> String {
        match self.cache_hit_rate() {
            None if !self.cache_enabled => "cache: disabled".to_string(),
            rate => format!(
                "cache: {} hits / {} misses ({} hit rate), {} evictions, {} saved",
                self.cache_hits,
                self.cache_misses,
                match rate {
                    Some(r) => format!("{:.1}%", r * 100.0),
                    None => "no traffic, n/a".to_string(),
                },
                self.cache_evictions,
                emlio_util::bytesize::format_bytes(self.cache_bytes_saved),
            ),
        }
    }

    /// One-line peer-tier report for service output; `None` when the
    /// cooperative-fleet layer saw no traffic (solo mode).
    pub fn peer_summary(&self) -> Option<String> {
        if self.peer_hits + self.peer_misses + self.peer_fallbacks == 0 {
            return None;
        }
        Some(format!(
            "peers: {} hits / {} misses / {} fallbacks, {} served by peers",
            self.peer_hits,
            self.peer_misses,
            self.peer_fallbacks,
            emlio_util::bytesize::format_bytes(self.peer_bytes),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DataPathMetrics::shared();
        m.record_batch(64, 6400);
        m.record_batch(64, 6400);
        m.record_storage_read(100);
        m.add_codec_nanos(50);
        let s = m.snapshot();
        assert_eq!((s.batches, s.samples, s.bytes), (2, 128, 12800));
        assert_eq!(s.read_nanos, 100);
        assert_eq!(s.codec_nanos, 50);
        assert_eq!(s.storage_reads, 1);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let m = DataPathMetrics::shared();
        // Disabled and traffic-free are distinguishable, not both 0.0.
        assert_eq!(m.snapshot().cache_hit_rate(), None);
        assert_eq!(m.snapshot().cache_summary(), "cache: disabled");
        m.set_cache_enabled(true);
        assert_eq!(m.snapshot().cache_hit_rate(), None, "no traffic yet");
        assert!(m.snapshot().cache_summary().contains("no traffic"));
        m.record_cache_hit(4096);
        m.record_cache_hit(4096);
        m.record_cache_miss();
        m.set_cache_evictions(5);
        let s = m.snapshot();
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (2, 1, 5));
        assert_eq!(s.cache_bytes_saved, 8192);
        assert!((s.cache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.cache_summary().contains("66.7% hit rate"));

        // An enabled cache with only misses reports 0%, not disabled.
        let cold = DataPathMetrics::shared();
        cold.set_cache_enabled(true);
        cold.record_cache_miss();
        assert_eq!(cold.snapshot().cache_hit_rate(), Some(0.0));
    }

    #[test]
    fn providers_refresh_at_snapshot_time() {
        use std::sync::atomic::AtomicU64;
        let m = DataPathMetrics::shared();
        // Model an off-path source of truth (e.g. the cache's own eviction
        // total) that advances between snapshots.
        let truth = Arc::new(AtomicU64::new(7));
        let t = truth.clone();
        m.register_provider(move |dm| {
            dm.set_cache_evictions(t.load(Ordering::Relaxed));
        });
        assert_eq!(m.snapshot().cache_evictions, 7);
        truth.store(19, Ordering::Relaxed);
        // A mid-epoch snapshot sees the new truth without any explicit
        // end-of-serve reconciliation pass.
        assert_eq!(m.snapshot().cache_evictions, 19);
    }

    #[test]
    fn stall_counters() {
        let m = DataPathMetrics::shared();
        m.add_send_blocked_nanos(100);
        m.add_send_blocked_nanos(50);
        m.set_serve_wall(1_000_000, 4);
        let s = m.snapshot();
        assert_eq!(s.send_blocked_nanos, 150);
        assert_eq!((s.serve_wall_nanos, s.serve_workers), (1_000_000, 4));
    }

    #[test]
    fn peer_counters_reconcile_and_summarize() {
        let m = DataPathMetrics::shared();
        assert_eq!(m.snapshot().peer_summary(), None, "solo mode is silent");
        m.set_peer_counters(10, 2, 1, 640_000);
        let s = m.snapshot();
        assert_eq!(
            (s.peer_hits, s.peer_misses, s.peer_fallbacks, s.peer_bytes),
            (10, 2, 1, 640_000)
        );
        let line = s.peer_summary().unwrap();
        assert!(line.contains("10 hits"), "{line}");
        assert!(line.contains("1 fallbacks"), "{line}");
        // Reconciliation overwrites rather than accumulates.
        m.set_peer_counters(12, 2, 1, 700_000);
        assert_eq!(m.snapshot().peer_hits, 12);
    }

    #[test]
    fn retry_counters_reconcile() {
        let m = DataPathMetrics::shared();
        m.set_retry_counters(5, 0);
        let s = m.snapshot();
        assert_eq!((s.io_retries, s.io_giveups), (5, 0));
        // Reconciliation overwrites rather than accumulates.
        m.set_retry_counters(9, 1);
        assert_eq!(m.snapshot().io_giveups, 1);
    }

    #[test]
    fn provider_registry_survives_a_panicking_provider() {
        let m = DataPathMetrics::shared();
        m.register_provider(|dm| dm.set_cache_evictions(3));
        // Poison the provider mutex from another thread while it is held.
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.providers.0.lock().unwrap();
            panic!("poison the provider lock");
        })
        .join();
        assert!(m.providers.0.lock().is_err(), "lock should be poisoned");
        // Snapshots and late registration still work: the Vec was never
        // mid-mutation, so the poison is recoverable.
        assert_eq!(m.snapshot().cache_evictions, 3);
        m.register_provider(|dm| dm.set_cache_readmitted(7));
        let s = m.snapshot();
        assert_eq!((s.cache_evictions, s.cache_readmitted), (3, 7));
    }

    #[test]
    fn pool_and_zero_copy_counters_reconcile() {
        let m = DataPathMetrics::shared();
        m.set_pool_counters(3, 97);
        m.set_zero_copy_hits(88);
        let s = m.snapshot();
        assert_eq!((s.pool_alloc, s.pool_reuse, s.zero_copy_hits), (3, 97, 88));
        // Reconciliation overwrites rather than accumulates.
        m.set_pool_counters(4, 196);
        assert_eq!(m.snapshot().pool_reuse, 196);
    }
}
