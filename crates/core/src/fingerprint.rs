//! FNV-1a, the stable 64-bit hash behind the scenario-delta cache's
//! component digests (DESIGN.md §10) and the `.apply` reply's cell
//! digest.
//!
//! Rust's `std::hash::Hash` is not stable across executions for the
//! default hasher, so digests that must mean the same thing in every
//! process fold their bytes through [`Fnv64`] with fixed encodings.
//! [`FnvSuffix`] folds a fixed byte string in one step, for hot loops
//! that hash the same suffix many times.

/// FNV-1a, 64-bit. Tiny, dependency-free, and good enough for cache
/// keys: collisions would need two different fate tables to collide in
/// a 64-bit space *and* land on the same chunk id.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    /// Folds a u32 little-endian.
    #[inline]
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// Folds a u64 little-endian.
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A fixed byte string, pre-folded: [`FnvSuffix::fold`] leaves an
/// [`Fnv64`] in exactly the state that writing the string byte by byte
/// would, for one multiply, one table lookup and one add.
///
/// Why a 256-entry table suffices: write the state as `h = H + l` with
/// `l = h & 0xFF`. XOR with a byte only touches the low 8 bits, so one
/// step gives `(H + (l ^ b))·P = h·P + ((l ^ b) − l)·P` (mod 2⁶⁴). `H`
/// is a multiple of 256 and so is `H·P`, hence the new low byte is that
/// of `(l ^ b)·P` — a function of `l` and `b` alone. By induction over
/// the string, folding `m` fixed bytes maps `h ↦ h·Pᵐ + T[l]`, where
/// `T[l]` depends only on `l` and the string. `T[l]` is read off by
/// folding the string from the state `l` itself and subtracting `l·Pᵐ`.
#[derive(Debug, Clone)]
pub struct FnvSuffix {
    mul: u64,
    add: [u64; 256],
}

impl FnvSuffix {
    /// Pre-folds `bytes` (256 folds of the string).
    pub fn new(bytes: &[u8]) -> Self {
        let mul = (0..bytes.len()).fold(1u64, |m, _| m.wrapping_mul(Fnv64::PRIME));
        let mut add = [0u64; 256];
        for (l, t) in add.iter_mut().enumerate() {
            let mut h = Fnv64(l as u64);
            for &b in bytes {
                h.write_u8(b);
            }
            *t = h.0.wrapping_sub((l as u64).wrapping_mul(mul));
        }
        FnvSuffix { mul, add }
    }

    /// `h` after writing the string.
    #[inline]
    pub fn fold(&self, h: Fnv64) -> Fnv64 {
        Fnv64(
            h.0.wrapping_mul(self.mul)
                .wrapping_add(self.add[(h.0 & 0xFF) as usize]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table identity, exhaustively over the low byte: every one of
    /// the 256 low bytes under several high-bit patterns, for strings of
    /// length 0..=40, agrees with folding the bytes one by one.
    #[test]
    fn suffix_fold_equals_bytewise_fold() {
        let highs = [
            0u64,
            0xcbf2_9ce4_8422_2300,
            0xffff_ffff_ffff_ff00,
            0x8000_0000_0000_0000,
            0x0123_4567_89ab_cd00,
        ];
        for len in 0..=40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len * 11) as u8).collect();
            let suffix = FnvSuffix::new(&bytes);
            for high in highs {
                for low in 0..256u64 {
                    let start = Fnv64(high | low);
                    let mut want = start;
                    for &b in &bytes {
                        want.write_u8(b);
                    }
                    assert_eq!(
                        suffix.fold(start).finish(),
                        want.finish(),
                        "len {len}, state {:#x}",
                        high | low
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_vectors_are_stable() {
        // Pin the digest encoding: a change here silently invalidates
        // every persisted expectation of the cache key, so make it loud.
        let mut h = Fnv64::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv64::new();
        h2.write_u8(b'f').write_u8(b'o').write_u8(b'o');
        assert_eq!(h2.finish(), 0xdcb2_7518_fed9_d577);
    }
}
