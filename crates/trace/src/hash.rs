//! SipHash-1-3 with zero keys: the hash behind every deterministic jitter
//! (the oracle's per-kernel noise and the reference run's per-board and
//! per-context noise).
//!
//! Traced times, goldens and benchmark digests all depend on these bits,
//! so the algorithm and the byte stream are fixed here rather than left to
//! `std`'s `DefaultHasher`, whose algorithm is unspecified. A string
//! contributes its bytes and then `0xff`; an integer its 8 little-endian
//! bytes. That is the stream `str::hash` and `u64::hash` (and
//! `usize::hash` on 64-bit hosts) feed `DefaultHasher`, whose SipHash-1-3
//! the recorded goldens were made with.

/// Incremental SipHash-1-3 keyed with zeros.
///
/// # Example
///
/// ```rust
/// use triosim_trace::SipHasher13;
///
/// let mut h = SipHasher13::new();
/// h.write_str("fc");
/// h.write_u64(1.0f64.to_bits());
/// let a = h.finish();
/// let mut h = SipHasher13::new();
/// h.write_str("fc");
/// h.write_u64(1.0f64.to_bits());
/// assert_eq!(h.finish(), a);
/// ```
#[derive(Debug, Clone)]
pub struct SipHasher13 {
    v: [u64; 4],
    /// Bytes not yet compressed, little-endian, `ntail` of them.
    tail: u64,
    ntail: usize,
    /// Bytes written so far.
    length: usize,
}

impl Default for SipHasher13 {
    fn default() -> Self {
        Self::new()
    }
}

impl SipHasher13 {
    /// A hasher with both keys zero and nothing written.
    pub const fn new() -> Self {
        SipHasher13 {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// One compression round over the 8-byte word `m`.
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }

    /// Appends raw bytes to the stream.
    fn write(&mut self, mut bytes: &[u8]) {
        self.length += bytes.len();
        if self.ntail > 0 {
            let take = bytes.len().min(8 - self.ntail);
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            bytes = &bytes[take..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            (self.tail, self.ntail) = (0, 0);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut m = [0; 8];
            m.copy_from_slice(word);
            self.compress(u64::from_le_bytes(m));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = words.remainder().len();
    }

    /// Appends a string: its bytes, then `0xff`.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Appends an integer as 8 little-endian bytes.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        s.compress(((self.length as u64 & 0xff) << 56) | self.tail);
        s.v[2] ^= 0xff;
        for _ in 0..3 {
            s.round();
        }
        let [v0, v1, v2, v3] = s.v;
        v0 ^ v1 ^ v2 ^ v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum Part {
        Str(&'static str),
        U64(u64),
    }

    fn hash(parts: &[Part]) -> u64 {
        let mut h = SipHasher13::new();
        for part in parts {
            match *part {
                Part::Str(s) => h.write_str(s),
                Part::U64(n) => h.write_u64(n),
            }
        }
        h.finish()
    }

    #[test]
    fn matches_the_values_default_hasher_gave() {
        // Each value is `DefaultHasher` over the same parts, hashed with
        // `str::hash`, `u64::hash` and (64-bit) `usize::hash`.
        use Part::{Str, U64};
        let cases: [(&[Part], u64); 12] = [
            (&[], 0xd1fb_a762_150c_532c),
            (&[Str("")], 0x3040_6ea5_23c5_3def),
            (&[U64(0)], 0xbd60_acb6_58c7_9e45),
            (&[U64(0), U64(0xB0A2D)], 0xa4bd_0f72_1738_5231),
            (&[U64(7), U64(0xB0A2D)], 0x0f77_7321_6ec4_8178),
            (
                &[Str("fc"), U64(1.0f64.to_bits()), Str("A100")],
                0x6096_c3c6_8b86_fa2e,
            ),
            (
                &[Str("conv1"), U64(346_816_512.0f64.to_bits()), Str("A100")],
                0x4359_408b_2821_be29,
            ),
            (
                &[U64(3), Str("layer3.0.conv2"), U64(2.5e9f64.to_bits())],
                0x828c_6556_cfd2_8c2b,
            ),
            (&[Str("1234567")], 0xb9a4_f30e_757f_e044),
            (&[Str("12345678")], 0x40cc_4e54_4a5a_f2cd),
            (
                &[Str("ünïcödé-op.bwd"), U64(u64::MAX)],
                0x3e82_e28a_9227_eaae,
            ),
            (
                &[
                    U64(u64::MAX),
                    Str("h.11.attn.qkv.sgd"),
                    U64(0x0123_4567_89ab_cdef),
                ],
                0x786d_c7e0_96a5_1eb3,
            ),
        ];
        for (i, (parts, want)) in cases.iter().enumerate() {
            assert_eq!(hash(parts), *want, "case {i}");
        }
    }

    #[test]
    fn the_hash_depends_on_the_stream_not_its_chunks() {
        let text = b"layer4.1.conv2.bwd\xff-and-some-more-bytes";
        let mut whole = SipHasher13::new();
        whole.write(text);
        for split in 0..text.len() {
            let mut h = SipHasher13::new();
            h.write(&text[..split]);
            h.write(&text[split..]);
            assert_eq!(h.finish(), whole.finish(), "split at {split}");
        }
    }
}
