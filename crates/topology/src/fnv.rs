//! FNV-1a 64: the workspace's one content hash.
//!
//! It fingerprints topologies ([`crate::Topology::fingerprint`]) and
//! scenario configs (`bb-core`'s world key), and checksums every blob of
//! the durable campaign records. It is stable across processes, machines
//! and compiler versions, and needs no dependency. It is not
//! collision-resistant against an adversary, which none of its uses need.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 state. Words fold as their little-endian bytes
/// and floats as their IEEE-754 bits, so equal inputs hash equally
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_folds_equal_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::new();
        w.word(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
        let mut f = Fnv1a::new();
        f.f64(1.5);
        assert_eq!(f.finish(), fnv1a(&1.5f64.to_bits().to_le_bytes()));
    }
}
