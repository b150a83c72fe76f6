//! FNV-1a 64-bit, the workspace's content fingerprint: checkpoint spec
//! hashes, network and budget fingerprints, the report's timeline digest
//! and the server's job ids all fold bytes through it.

/// FNV-1a's initial state: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime: each byte is XORed in, then the state is
/// multiplied by it.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a state `state` becomes after folding in `bytes`, in order.
/// Start from [`FNV_OFFSET`]; folding in pieces equals folding their
/// concatenation.
///
/// # Example
///
/// ```rust
/// use triosim_des::{fnv1a, FNV_OFFSET};
///
/// let whole = fnv1a(FNV_OFFSET, b"abc");
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"bc"), whole);
/// assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
/// ```
#[inline]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
