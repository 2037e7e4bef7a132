//! The reference digest the consumer checks every delivered payload
//! against.
//!
//! Four independent multiply-rotate lanes over 8-byte words, folded at the
//! end. Every step is a bijection of the lane state, so any change to one
//! word changes the digest; it is not meant to resist crafted collisions,
//! only to catch corruption. It runs at several GB/s, so the per-batch
//! check stays a small share of the consumer thread.

const K: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

/// 64-bit digest of `data`.
pub fn digest(data: &[u8]) -> u64 {
    let mut lanes = K;
    let mut words = data.chunks_exact(32);
    for block in &mut words {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K[i]).rotate_left(29);
        }
    }
    let mut h = data.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K[0]).rotate_left(31);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(K[1]);
    }
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn any_single_bit_flip_changes_the_digest() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let d = digest(&data);
        for i in 0..data.len() {
            let mut c = data.clone();
            c[i] ^= 0x10;
            assert_ne!(digest(&c), d, "flip at byte {i}");
        }
        assert_ne!(digest(&data[..999]), d, "truncation");
    }
}
