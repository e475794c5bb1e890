//! Stable content fingerprints for scenarios and perspective sets.
//!
//! The scenario-delta cache (DESIGN.md §10) keys cached chunks on a
//! 64-bit digest of the *semantic content* that determines the chunk's
//! bytes. Rust's `std::hash::Hash` is not stable across executions for
//! the default hasher, so we fold everything through FNV-1a with fixed
//! encodings: the digest of a given scenario is the same in every
//! process, which keeps cache keys meaningful across sessions sharing a
//! serialized store.
//!
//! Digests are *order-independent* where order is immaterial: a
//! positive scenario's change relation is a set, so its changes are
//! digested individually and the per-change digests are sorted before
//! being folded together. Perspective sets are already canonical
//! (`PerspectiveSpec::new` sorts and dedups), so they fold in order.

use crate::perspective::{Mode, PerspectiveSpec, Semantics};
use crate::scenario::{Change, Scenario};
use olap_model::DimensionId;

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

fn semantics_tag(s: Semantics) -> u8 {
    match s {
        Semantics::Static => 0,
        Semantics::Forward => 1,
        Semantics::ExtendedForward => 2,
        Semantics::Backward => 3,
        Semantics::ExtendedBackward => 4,
    }
}

fn mode_tag(m: Mode) -> u8 {
    match m {
        Mode::NonVisual => 0,
        Mode::Visual => 1,
    }
}

impl Change {
    /// Stable digest of one positive change tuple `R(m, o, n, t)`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(self.member.0);
        match self.old_parent {
            None => {
                h.write_u8(0);
            }
            Some(o) => {
                h.write_u8(1).write_u32(o.0);
            }
        }
        h.write_u32(self.new_parent.0).write_u32(self.at);
        h.finish()
    }
}

impl PerspectiveSpec {
    /// Stable digest of a perspective clause. The perspective vector is
    /// canonical (sorted + deduped) so positional folding is fine.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(self.dim.0);
        h.write_u8(semantics_tag(self.semantics));
        h.write_u8(mode_tag(self.mode));
        h.write_u32(self.perspectives.len() as u32);
        for &p in &self.perspectives {
            h.write_u32(p);
        }
        h.finish()
    }
}

/// Stable digest of a positive scenario whose change relation arrives
/// as an iterator. The scenario forest stores a fork's changes as a
/// copy-on-write chain of shared segments; this lets it fingerprint the
/// logical relation without first materializing a contiguous vector.
/// Equal relations (in any iteration order) digest equal.
pub fn positive_fingerprint<'a>(
    dim: DimensionId,
    mode: Mode,
    changes: impl Iterator<Item = &'a Change>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(2).write_u32(dim.0).write_u8(mode_tag(mode));
    // The change relation is a set: digest each tuple, sort, then fold,
    // so iteration order is immaterial but duplicate tuples still count
    // (unlike an XOR combine, which would let pairs cancel out).
    let mut digests: Vec<u64> = changes.map(Change::fingerprint).collect();
    digests.sort_unstable();
    h.write_u32(digests.len() as u32);
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

impl Scenario {
    /// Stable content digest of the whole scenario. Two scenarios that
    /// are semantically equal — same perspective set, or the same change
    /// *relation* in any vector order — fingerprint equal; any
    /// single-field mutation changes the digest.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Scenario::Negative(spec) => {
                let mut h = Fnv64::new();
                h.write_u8(1).write_u64(spec.fingerprint());
                h.finish()
            }
            Scenario::Positive { dim, changes, mode } => {
                positive_fingerprint(*dim, *mode, changes.iter())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionId, MemberId};

    fn change(member: u32, at: u32) -> Change {
        Change {
            member: MemberId(member),
            old_parent: Some(MemberId(1)),
            new_parent: MemberId(2),
            at,
        }
    }

    #[test]
    fn change_order_is_immaterial() {
        let a = Scenario::positive(
            DimensionId(0),
            vec![change(3, 1), change(4, 2)],
            Mode::Visual,
        );
        let b = Scenario::positive(
            DimensionId(0),
            vec![change(4, 2), change(3, 1)],
            Mode::Visual,
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn duplicate_changes_do_not_cancel() {
        let one = Scenario::positive(DimensionId(0), vec![change(3, 1)], Mode::Visual);
        let twice = Scenario::positive(
            DimensionId(0),
            vec![change(3, 1), change(3, 1)],
            Mode::Visual,
        );
        assert_ne!(one.fingerprint(), twice.fingerprint());
    }

    #[test]
    fn every_field_feeds_the_negative_digest() {
        let base = Scenario::negative(DimensionId(1), [0, 6], Semantics::Forward, Mode::Visual);
        let variants = [
            Scenario::negative(DimensionId(2), [0, 6], Semantics::Forward, Mode::Visual),
            Scenario::negative(DimensionId(1), [0, 7], Semantics::Forward, Mode::Visual),
            Scenario::negative(DimensionId(1), [0, 6], Semantics::Static, Mode::Visual),
            Scenario::negative(DimensionId(1), [0, 6], Semantics::Forward, Mode::NonVisual),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        // And the digest is a pure content function: rebuild equals.
        let again = Scenario::negative(DimensionId(1), [6, 0], Semantics::Forward, Mode::Visual);
        assert_eq!(base.fingerprint(), again.fingerprint());
    }

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
