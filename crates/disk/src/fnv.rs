//! FNV-1a, the one checksum every on-disk and on-wire record uses.
//!
//! The 64-bit form checksums store records, WAL frames, snap frames and
//! wire messages; the 32-bit form checksums small headers and persistent
//! index nodes. Both live here, in the crate every layer already depends
//! on, so a record's checksum is computed the same way everywhere.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

const FNV32_OFFSET: u32 = 0x811C_9DC5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// Extends an FNV-1a 64 hash with more bytes (for checksumming a payload
/// spread over several buffers).
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a 32-bit.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = FNV32_OFFSET;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(FNV32_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_64_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_32_known_answers() {
        assert_eq!(fnv1a32(b""), 0x811c9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9cf968);
    }

    #[test]
    fn extend_equals_one_pass() {
        assert_eq!(
            fnv1a_extend(fnv1a(b"hello "), b"world"),
            fnv1a(b"hello world")
        );
    }
}
