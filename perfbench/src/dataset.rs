//! Workload inputs: TFRecord shards generated from the workload seed, plus
//! the reference digest of every sample.
//!
//! Generation takes seconds, so it runs before any timed window and its
//! output is kept under the data directory, keyed by workload and seed;
//! later runs with the same seed reuse it. The digests are computed from
//! `DatasetSpec::payload_of` while the shards are written, never by
//! reading the shards back, so they are independent of the read path the
//! benchmark measures.

use crate::digest::digest;
use emlio_datagen::DatasetSpec;
use emlio_tfrecord::{ShardSpec, ShardWriter};
use std::path::{Path, PathBuf};

/// A generated dataset on disk and its reference.
pub struct Dataset {
    /// Directory holding the shards and their `mapping_shard_*.json`.
    pub shards_dir: PathBuf,
    /// `digests[id]` is the digest of sample `id`'s payload.
    pub digests: Vec<u64>,
    /// Framed bytes of all shards: what one pass over storage reads.
    pub storage_bytes: u64,
}

impl Dataset {
    /// Load the dataset for `(name, spec)` from `data_dir`, generating it
    /// first if it is not there. Datasets of the same workload with other
    /// seeds are deleted, so the directory holds one per workload.
    pub fn prepare(
        data_dir: &Path,
        name: &str,
        spec: &DatasetSpec,
        shards: u32,
    ) -> Result<Dataset, String> {
        let dir = data_dir.join(format!("{name}-{}-{}", spec.seed, spec.num_samples));
        let shards_dir = dir.join("shards");
        let digest_file = dir.join("digests.bin");
        if !digest_file.exists() {
            remove_siblings(data_dir, name)?;
            generate(&shards_dir, &digest_file, spec, shards)?;
        }
        let raw = std::fs::read(&digest_file).map_err(|e| format!("read digests: {e}"))?;
        let digests: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte digest")))
            .collect();
        if digests.len() as u64 != spec.num_samples {
            return Err(format!("{} holds a partial digest table", dir.display()));
        }
        let index = emlio_tfrecord::GlobalIndex::load_dir(&shards_dir)
            .map_err(|e| format!("load {}: {e}", shards_dir.display()))?;
        Ok(Dataset {
            shards_dir,
            digests,
            storage_bytes: index.total_bytes(),
        })
    }
}

fn remove_siblings(data_dir: &Path, name: &str) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(data_dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with(&format!("{name}-"))
        {
            std::fs::remove_dir_all(entry.path())
                .map_err(|e| format!("remove {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Write the shards and then the digest table; the table is written last,
/// so its presence marks a complete dataset.
fn generate(
    shards_dir: &Path,
    digest_file: &Path,
    spec: &DatasetSpec,
    shards: u32,
) -> Result<(), String> {
    std::fs::create_dir_all(shards_dir).map_err(|e| format!("create dataset dir: {e}"))?;
    let mut writer =
        ShardWriter::create(shards_dir, ShardSpec::Count(shards)).map_err(|e| e.to_string())?;
    let mut table = Vec::with_capacity(spec.num_samples as usize * 8);
    // Payload synthesis dominates; two threads share it, then the payloads
    // are appended in id order.
    const CHUNK: u64 = 64;
    let mut start = 0;
    while start < spec.num_samples {
        let end = (start + CHUNK).min(spec.num_samples);
        let mid = start + (end - start) / 2;
        let (low, high) = std::thread::scope(|s| {
            let high = s.spawn(|| payloads(spec, mid, end));
            (
                payloads(spec, start, mid),
                high.join().expect("payload thread"),
            )
        });
        for (id, payload) in (start..end).zip(low.into_iter().chain(high)) {
            if payload.len() as u64 != spec.sample_bytes {
                return Err(format!(
                    "sample {id} is {} bytes, not {}: the image does not fit",
                    payload.len(),
                    spec.sample_bytes
                ));
            }
            table.extend_from_slice(&digest(&payload).to_le_bytes());
            writer
                .append(&payload, spec.label_of(id))
                .map_err(|e| e.to_string())?;
        }
        start = end;
    }
    writer.finish().map_err(|e| e.to_string())?;
    std::fs::write(digest_file, table).map_err(|e| format!("write digests: {e}"))
}

fn payloads(spec: &DatasetSpec, start: u64, end: u64) -> Vec<Vec<u8>> {
    (start..end).map(|id| spec.payload_of(id)).collect()
}
