//! Property-based tests for the zero-copy wire path: across arbitrary
//! sample sets the scatter encoder must gather to exactly the bytes the
//! eager encoder produces, the lazy decoder must materialize exactly what
//! the eager decoder reads, and pooled buffers must round-trip
//! byte-for-byte against a plain `Vec<u8>` baseline.

use bytes::Bytes;
use emlio_core::wire::{self, LazyMsg, WireMsg};
use emlio_core::BufferPool;
use proptest::prelude::*;

/// Arbitrary batches: a handful of samples with ids/labels/payloads of any
/// shape, including empty payloads and empty batches.
fn samples_strategy() -> impl Strategy<Value = Vec<(u64, u32, Vec<u8>)>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..512),
        ),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scatter_frame_gathers_to_eager_bytes(
        epoch in any::<u32>(),
        batch_id in any::<u64>(),
        origin in ".{0,32}",
        samples in samples_strategy(),
    ) {
        let pool = BufferPool::new();
        let borrowed: Vec<(u64, u32, &[u8])> = samples
            .iter()
            .map(|(id, label, data)| (*id, *label, data.as_slice()))
            .collect();
        let eager = wire::encode_batch(epoch, batch_id, &origin, None, &borrowed);

        let owned: Vec<(u64, u32, Bytes)> = samples
            .iter()
            .map(|(id, label, data)| (*id, *label, Bytes::from(data.clone())))
            .collect();
        let frame = wire::encode_batch_frame(epoch, batch_id, &origin, None, &owned, &pool);
        prop_assert_eq!(frame.len(), eager.len());
        prop_assert_eq!(&frame.into_bytes()[..], &eager[..]);
    }

    #[test]
    fn lazy_decode_materializes_what_eager_reads(
        epoch in any::<u32>(),
        batch_id in any::<u64>(),
        origin in ".{0,32}",
        samples in samples_strategy(),
    ) {
        let pool = BufferPool::new();
        let owned: Vec<(u64, u32, Bytes)> = samples
            .iter()
            .map(|(id, label, data)| (*id, *label, Bytes::from(data.clone())))
            .collect();
        let frame = wire::encode_batch_frame(epoch, batch_id, &origin, None, &owned, &pool).into_bytes();

        let eager = match wire::decode(&frame).expect("eager decode") {
            WireMsg::Batch(batch) => batch,
            WireMsg::EndStream { .. } => panic!("batch decoded as end-of-stream"),
        };
        let lazy = match wire::decode_lazy(&frame, None).expect("lazy decode") {
            LazyMsg::Batch(lb) => lb,
            LazyMsg::EndStream { .. } => panic!("batch scanned as end-of-stream"),
        };
        prop_assert_eq!(lazy.epoch(), epoch);
        prop_assert_eq!(lazy.batch_id(), batch_id);
        prop_assert_eq!(lazy.origin().as_ref(), &origin[..]);
        prop_assert_eq!(lazy.len(), samples.len());
        prop_assert_eq!(lazy.materialize(), eager);
    }

    #[test]
    fn pooled_buffer_roundtrips_byte_for_byte(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 0..8),
    ) {
        // Baseline: the same writes into a plain Vec<u8>.
        let mut baseline = Vec::new();
        for chunk in &chunks {
            baseline.extend_from_slice(chunk);
        }

        // Write through the pool twice so the second pass exercises a
        // recycled buffer, not a fresh allocation.
        let pool = BufferPool::new();
        for pass in 0..2 {
            let mut buf = pool.get(1);
            for chunk in &chunks {
                buf.extend_from_slice(chunk);
            }
            let frozen = buf.freeze();
            prop_assert_eq!(&frozen[..], &baseline[..], "pass {}", pass);
            drop(frozen); // return the buffer to the pool for pass 2
        }
        let stats = pool.stats();
        prop_assert!(
            baseline.is_empty() || stats.pool_reuse >= 1,
            "second pass should reuse: {stats:?}"
        );
    }
}
