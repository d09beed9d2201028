//! FNV-1a, the one fold behind every fingerprint and pin.

/// FNV-1a's offset basis: every fingerprint starts its fold here.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`. Every FNV-1a fingerprint and
/// pin in the workspace folds through this one function; a word folds as
/// its eight little-endian bytes (`fnv1a(h, &x.to_le_bytes())`). Inline:
/// the fleet and simtest fold on their per-completion paths.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"),
            fnv1a(FNV_BASIS, b"foobar")
        );
    }
}
