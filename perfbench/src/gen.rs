//! Seeded input generation. Every input a workload feeds the program —
//! arrival times, keys, offsets and payload bytes — comes from here, so
//! the seed reaches the generator and nothing else.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An independent generator for one input stream of one seed.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A link seed derived from the run seed, so loss and jitter draws
/// differ per seed as well.
pub fn link_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Fills `buf` with uniformly random payload bytes, so payloads are
/// incompressible.
pub fn payload(rng: &mut StdRng, buf: &mut [u8]) {
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// FNV-1a over generated inputs: two runs fed the same inputs agree.
#[derive(Debug, Clone, Copy)]
pub struct InputDigest(u64);

impl Default for InputDigest {
    fn default() -> Self {
        InputDigest(0xCBF2_9CE4_8422_2325)
    }
}

impl InputDigest {
    /// Folds `bytes` into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one integer into the digest.
    pub fn add_u64(&mut self, v: u64) {
        self.add(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
