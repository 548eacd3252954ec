//! The workspace's one FNV-1a writer, for content digests and cache keys.
//!
//! Integers and floats are written as 8-byte little-endian words, tags as
//! one byte, and strings with their length in front. The configuration
//! digests ([`crate::config::SocConfig::content_digest`] and the
//! profiler's fault model) and `mwc-core`'s study keys and study digest
//! all hash through it, so a field's encoding is defined once.

/// A 64-bit FNV-1a accumulator.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Mix raw bytes, one at a time.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix a string as its length, then its bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Mix a float by its bit pattern, so every value (`-0.0`, each NaN)
    /// hashes distinctly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mix a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `usize` as a `u64`, so the stream is the same on every
    /// target.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix a one-byte tag, such as an `Option`'s presence.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_length_prefixed() {
        let mut ab_c = Fnv1a::new();
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = Fnv1a::new();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }
}
