//! Concurrency stress: many threads hammering one sharded cache with a
//! mix of hits, misses, evictions, spills, and promotes. The cache must
//! never exceed either tier's capacity accounting, never deadlock (the
//! test completing IS the liveness assertion — CI runs it in release
//! mode), and keep its counters coherent. Capacity is sized well below
//! the working set so the eviction/spill/promote state machine is
//! exercised constantly, across all three policies.

use emlio_cache::{BlockKey, CacheConfig, EvictPolicy, ShardCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCK_BYTES: usize = 4096;
const KEYSPACE: usize = 160;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 1200;

fn key(i: usize) -> BlockKey {
    BlockKey {
        shard_id: (i % 4) as u32,
        start: i * 100,
        end: i * 100 + 100,
    }
}

/// Tiny deterministic per-thread RNG (xorshift) — no shared state.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn hammer(policy: EvictPolicy) {
    let ram = (40 * BLOCK_BYTES) as u64;
    let disk = (24 * BLOCK_BYTES) as u64;
    let cache = Arc::new(
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(ram)
                .with_disk_bytes(disk)
                .with_policy(policy)
                .with_prefetch_depth(0),
        )
        .unwrap(),
    );
    // A cyclic plan keeps the clairvoyant heap busy; unplanned keys just
    // advance time.
    cache.set_plan((0..KEYSPACE * 4).map(|i| key((i * 7) % KEYSPACE)).collect());

    let demand_ops = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = cache.clone();
        let demand_ops = demand_ops.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = 0x9E3779B9u64.wrapping_mul(t as u64 + 1) | 1;
            for op in 0..OPS_PER_THREAD {
                // Zipf-ish skew: half the traffic on an eighth of the keys.
                let r = next_rand(&mut rng);
                let k = if r & 1 == 0 {
                    key((r >> 1) as usize % (KEYSPACE / 8))
                } else {
                    key((r >> 1) as usize % KEYSPACE)
                };
                match r % 10 {
                    // Mostly demand reads with single-flight fetch.
                    0..=6 => {
                        demand_ops.fetch_add(1, Ordering::Relaxed);
                        let (data, _) = cache
                            .get_or_fetch::<std::io::Error, _, _>(k, || {
                                Ok(vec![k.shard_id as u8; BLOCK_BYTES])
                            })
                            .unwrap();
                        assert_eq!(data.len(), BLOCK_BYTES);
                    }
                    // Non-blocking demand lookups.
                    7 => {
                        demand_ops.fetch_add(1, Ordering::Relaxed);
                        let _ = cache.get(&k);
                    }
                    // Raw inserts racing the fetch paths.
                    8 => cache.insert(k, vec![k.shard_id as u8; BLOCK_BYTES]),
                    // Prefetches racing demand.
                    _ => {
                        let _ = cache.prefetch::<std::io::Error, _, _>(k, || {
                            Ok(vec![k.shard_id as u8; BLOCK_BYTES])
                        });
                    }
                }
                if op % 64 == 0 {
                    assert!(cache.ram_bytes_used() <= ram, "RAM over capacity");
                    assert!(cache.disk_bytes_used() <= disk, "disk over capacity");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    // Settle the background spill writer: queued orders may still resolve
    // to disk (or be declined) after the workers stop.
    cache.flush_spills();

    assert!(cache.ram_bytes_used() <= ram);
    assert!(cache.disk_bytes_used() <= disk);
    let s = cache.stats().snapshot();
    assert_eq!(
        s.hits + s.misses,
        demand_ops.load(Ordering::Relaxed),
        "every demand access resolved exactly once: {s:?}"
    );
    assert!(
        s.evictions > 0,
        "capacity pressure exercised eviction: {s:?}"
    );
    assert!(s.spills > 0, "disk tier exercised: {s:?}");
    // Every resident key must still serve coherent bytes afterwards.
    for k in cache.ram_keys() {
        let data = cache.get(&k).expect("resident key readable");
        assert!(data.iter().all(|&b| b == k.shard_id as u8));
    }
}

#[test]
fn stress_lru_sharded() {
    hammer(EvictPolicy::Lru);
}

#[test]
fn stress_fifo_sharded() {
    hammer(EvictPolicy::Fifo);
}

#[test]
fn stress_clairvoyant_sharded() {
    hammer(EvictPolicy::Clairvoyant);
}

#[test]
fn stress_peer_fleet_coalesces_storage_reads() {
    // A 4-peer fleet hammered from 8 threads: every key is read through
    // many peers at once, racing owner fetches, flight handoffs, and
    // offers into the owners' caches. Liveness = completion; correctness =
    // every read returns the backing pattern; economy = the shared backing
    // store is read exactly once per unique key (fleet-wide single-flight
    // plus retained flights make the count exact, not approximate).
    use emlio_cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerSource};
    use emlio_cache::RangeSource;
    use emlio_tfrecord::FnSource;
    use std::collections::HashSet;
    use std::sync::Mutex;

    const PEERS: usize = 4;

    let storage_reads = Arc::new(AtomicU64::new(0));
    let touched = Arc::new(Mutex::new(HashSet::new()));
    let registry = FleetRegistry::new();
    for p in 0..PEERS {
        registry.join(&format!("p{p}"));
    }
    let mut sources = Vec::new();
    let mut caches = Vec::new();
    for p in 0..PEERS {
        let cache = Arc::new(
            ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes((KEYSPACE * BLOCK_BYTES) as u64)
                    .with_prefetch_depth(0),
            )
            .unwrap(),
        );
        registry.attach(&format!("p{p}"), LocalPeer::new(&cache));
        let reads = storage_reads.clone();
        let touched = touched.clone();
        let inner: Arc<dyn RangeSource> = Arc::new(FnSource::new(move |k: &BlockKey| {
            reads.fetch_add(1, Ordering::SeqCst);
            touched.lock().unwrap().insert(*k);
            Ok(vec![k.shard_id as u8; BLOCK_BYTES])
        }));
        sources.push(PeerSource::new(
            registry.clone(),
            &format!("p{p}"),
            inner,
            PeerConfig::default(),
        ));
        caches.push(cache);
    }

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let source = sources[t % PEERS].clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = 0xD1B54A32u64.wrapping_mul(t as u64 + 1) | 1;
            for _ in 0..OPS_PER_THREAD {
                let k = key(next_rand(&mut rng) as usize % KEYSPACE);
                let read = source.read_block(&k).unwrap();
                assert_eq!(read.data.len(), BLOCK_BYTES);
                assert!(read.data.iter().all(|&b| b == k.shard_id as u8));
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }

    let unique = touched.lock().unwrap().len() as u64;
    assert_eq!(
        storage_reads.load(Ordering::SeqCst),
        unique,
        "fleet-wide single-flight reads each key from storage exactly once"
    );
    let fallbacks: u64 = sources.iter().map(|s| s.stats().snapshot().fallbacks).sum();
    assert_eq!(fallbacks, 0, "all owners stayed reachable");
}
