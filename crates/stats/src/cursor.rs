//! Little-endian byte cursor for the binary codecs.
//!
//! [`crate::QuantileSketch::decode`] (`bbqs`) and `bb-core`'s serve-state
//! blob (`bbsv`) read fixed-width little-endian integers and
//! length-prefixed slices through this one reader. Every read is checked:
//! running past the end is `None`, never a panic, so a decoder built on it
//! turns any truncation or corrupt length into a structured error.

/// Forward-only reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteCursor { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A pre-allocation for `n` decoded records, capped at the number of
    /// `record_bytes`-sized encodings the remaining input could hold, so a
    /// corrupt count cannot request more memory than the input justifies.
    pub fn cap(&self, n: usize, record_bytes: usize) -> usize {
        n.min(self.remaining() / record_bytes)
    }

    /// The next `len` bytes, or `None` if fewer remain.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let b = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(b)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn i32(&mut self) -> Option<i32> {
        self.array().map(i32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_stops_at_the_end() {
        let bytes = [7u8, 1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 9];
        let mut c = ByteCursor::new(&bytes);
        assert_eq!(c.u8(), Some(7));
        assert_eq!(c.u32(), Some(1));
        assert_eq!(c.i32(), Some(-2));
        assert_eq!(c.remaining(), 1);
        assert_eq!(c.u64(), None, "a short read fails");
        assert_eq!(c.take(usize::MAX), None, "an overflowing length fails");
        assert_eq!(c.take(1), Some(&[9u8][..]), "failed reads consume nothing");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cap_bounds_preallocation_by_remaining_bytes() {
        let c = ByteCursor::new(&[0u8; 40]);
        assert_eq!(c.cap(3, 8), 3);
        assert_eq!(c.cap(usize::MAX, 8), 5);
    }
}
