//! A compact fixed-capacity bit set.
//!
//! Used as the representation of [validity sets](crate::ValiditySet) (sets
//! of parameter-dimension moments) and for member-set bookkeeping during
//! query evaluation. The capacity is fixed at construction; all set
//! operations require equal capacities, which catches cross-dimension mixups
//! at the call site in debug builds.

/// A fixed-capacity set of `u32` ordinals backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of addressable bits. Bits at positions `>= len` are always 0.
    len: u32,
}

impl BitSet {
    /// Creates an empty set with capacity for ordinals `0..len`.
    pub fn new(len: u32) -> Self {
        let nwords = (len as usize).div_ceil(64);
        BitSet {
            words: vec![0; nwords],
            len,
        }
    }

    /// Creates a set containing every ordinal in `0..len`.
    pub fn full(len: u32) -> Self {
        let mut s = BitSet::new(len);
        s.insert_all();
        s
    }

    /// Creates a set from an iterator of ordinals.
    ///
    /// # Panics
    /// Panics if any ordinal is `>= len`.
    pub fn from_iter(len: u32, iter: impl IntoIterator<Item = u32>) -> Self {
        let mut s = BitSet::new(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The capacity (number of addressable ordinals).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.len
    }

    /// Inserts `i` into the set. Returns whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        assert!(i < self.len, "bit {} out of range {}", i, self.len);
        let (w, b) = (i as usize / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `i` from the set. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        assert!(i < self.len, "bit {} out of range {}", i, self.len);
        let (w, b) = (i as usize / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i as usize / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Inserts every ordinal in `0..capacity`.
    pub fn insert_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.trim();
    }

    /// Number of ordinals in the set.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `true` if no ordinal is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union. Capacities must match.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection. Capacities must match.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`). Capacities must match.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `true` if the sets share at least one ordinal.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `true` if every ordinal of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The smallest ordinal present, if any.
    pub fn min(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi as u32 * 64 + w.trailing_zeros());
            }
        }
        None
    }

    /// The largest ordinal present, if any.
    pub fn max(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi as u32 * 64 + 63 - w.leading_zeros());
            }
        }
        None
    }

    /// The backing words, 64 ordinals per word (bit `i % 64` of word
    /// `i / 64`). Bits at positions `>= capacity` are always 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads the 64 bits starting at ordinal `start` as one word (bit 0 of
    /// the result is ordinal `start`). Bits beyond capacity read as 0.
    #[inline]
    pub fn read_word(&self, start: u32) -> u64 {
        let (w, b) = (start as usize / 64, start % 64);
        let lo = self.words.get(w).copied().unwrap_or(0) >> b;
        if b == 0 {
            lo
        } else {
            let hi = self.words.get(w + 1).copied().unwrap_or(0);
            lo | (hi << (64 - b))
        }
    }

    /// ORs `len` bits of `src` (starting at `src_start`) into `self`
    /// starting at `dst_start`. The ranges may be at different word
    /// alignments; the copy runs a word at a time, not a bit at a time.
    ///
    /// # Panics
    /// Panics if either range exceeds its set's capacity.
    pub fn or_range(&mut self, dst_start: u32, src: &BitSet, src_start: u32, len: u32) {
        assert!(
            dst_start as u64 + len as u64 <= self.len as u64,
            "or_range dst {}+{} out of range {}",
            dst_start,
            len,
            self.len
        );
        assert!(
            src_start as u64 + len as u64 <= src.len as u64,
            "or_range src {}+{} out of range {}",
            src_start,
            len,
            src.len
        );
        let mut done = 0u32;
        while done < len {
            let d = dst_start + done;
            let (dw, db) = (d as usize / 64, d % 64);
            let n = (64 - db).min(len - done);
            let bits = src.read_word(src_start + done) & Self::low_mask(n);
            self.words[dw] |= bits << db;
            done += n;
        }
    }

    /// Number of ordinals present in `start..start + len`.
    ///
    /// # Panics
    /// Panics if the range exceeds the capacity.
    pub fn count_range(&self, start: u32, len: u32) -> u32 {
        assert!(
            start as u64 + len as u64 <= self.len as u64,
            "count_range {}+{} out of range {}",
            start,
            len,
            self.len
        );
        let mut done = 0u32;
        let mut cnt = 0u32;
        while done < len {
            let n = (len - done).min(64);
            cnt += (self.read_word(start + done) & Self::low_mask(n)).count_ones();
            done += n;
        }
        cnt
    }

    /// A mask of the low `n` bits (`n <= 64`).
    #[inline]
    fn low_mask(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Iterates ordinals in ascending order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Clears any bits at or beyond `len` (after `insert_all`).
    fn trim(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    #[inline]
    fn check(&self, other: &BitSet) {
        debug_assert_eq!(
            self.len, other.len,
            "BitSet capacity mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over the ordinals of a [`BitSet`].
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(self.word as u32 * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = u32;
    type IntoIter = BitSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        assert_eq!(s.max(), Some(69));
    }

    #[test]
    fn set_ops() {
        let a = BitSet::from_iter(10, [1, 2, 3]);
        let b = BitSet::from_iter(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(a.intersects(&b));
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn min_max_across_words() {
        let s = BitSet::from_iter(200, [65, 130, 199]);
        assert_eq!(s.min(), Some(65));
        assert_eq!(s.max(), Some(199));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![65, 130, 199]);
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn read_word_spans_word_boundary() {
        let s = BitSet::from_iter(200, [0, 63, 64, 70, 127, 128]);
        assert_eq!(s.read_word(0) & 1, 1);
        assert_eq!(s.read_word(63) & 0b11, 0b11); // bits 63, 64
        let w = s.read_word(60);
        assert_eq!(w & (1 << 3), 1 << 3); // bit 63
        assert_eq!(w & (1 << 4), 1 << 4); // bit 64
        assert_eq!(w & (1 << 10), 1 << 10); // bit 70
                                            // Bits past capacity read as 0.
        assert_eq!(BitSet::from_iter(10, [9]).read_word(9), 1);
    }

    #[test]
    fn or_range_misaligned() {
        // Copy a misaligned window and check bit-for-bit against contains().
        let src = BitSet::from_iter(300, (0..300).filter(|i| i % 7 == 0 || i % 11 == 3));
        for &(dst_start, src_start, len) in &[
            (0u32, 0u32, 300u32),
            (5, 17, 200),
            (63, 1, 130),
            (64, 64, 64),
            (1, 0, 63),
        ] {
            let mut dst = BitSet::from_iter(400, [0, 399]);
            dst.or_range(dst_start, &src, src_start, len);
            for i in 0..400u32 {
                let expect = dst_start <= i
                    && i < dst_start + len
                    && src.contains(src_start + (i - dst_start))
                    || i == 0
                    || i == 399;
                assert_eq!(
                    dst.contains(i),
                    expect,
                    "bit {i} for window ({dst_start},{src_start},{len})"
                );
            }
        }
    }

    #[test]
    fn or_range_is_or_not_assign() {
        // Pre-existing dst bits inside the window survive.
        let src = BitSet::new(64);
        let mut dst = BitSet::from_iter(64, [10, 20]);
        dst.or_range(5, &src, 0, 30);
        assert!(dst.contains(10) && dst.contains(20));
    }

    #[test]
    fn count_range_matches_scalar() {
        let s = BitSet::from_iter(300, (0..300).filter(|i| i % 3 == 0));
        for &(start, len) in &[
            (0u32, 300u32),
            (1, 100),
            (63, 2),
            (64, 64),
            (250, 0),
            (299, 1),
        ] {
            let scalar = (start..start + len).filter(|&i| s.contains(i)).count() as u32;
            assert_eq!(s.count_range(start, len), scalar, "range ({start},{len})");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_range_out_of_bounds_panics() {
        let src = BitSet::new(10);
        let mut dst = BitSet::new(10);
        dst.or_range(5, &src, 0, 6);
    }
}
