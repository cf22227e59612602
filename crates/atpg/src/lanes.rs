//! Wide pattern words: `L`×`u64` lane blocks for the PPSFP engines.
//!
//! [`PatternWords<L>`] generalises the single `u64` machine word the
//! bit-parallel engines historically ran on to a fixed-size array of `L`
//! lanes (64·L patterns per block). Every bitwise operation is a plain
//! loop over a `[u64; L]` — the compiler unrolls and autovectorises these
//! to 256/512-bit SIMD at `L = 4`/`L = 8` on targets that have it, with a
//! scalar fallback everywhere else. `L = 1` is layout- and
//! codegen-identical to the historical `u64` kernel, which is why the
//! lane-differential property suite can pin every wider kernel against it
//! bit for bit.
//!
//! The supported widths are `{1, 2, 4, 8}` (see
//! [`crate::faultsim::SUPPORTED_LANES`]). The default entry points run
//! at `L = 1` ([`crate::faultsim::configured_lanes`]); the `*_lanes`
//! forms dispatch on an explicit width.

/// `L` machine words of packed pattern bits: bit `k` of lane `k / 64` is
/// pattern `64 * (k / 64) + (k % 64)` — i.e. pattern indices are
/// lane-major and ascending, exactly like a single `u64` extended `L`
/// times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternWords<const L: usize = 1>(pub [u64; L]);

impl<const L: usize> std::default::Default for PatternWords<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> PatternWords<L> {
    /// All bits clear.
    pub const ZERO: Self = PatternWords([0u64; L]);

    /// Total pattern capacity: `64 * L` bits.
    pub const BITS: usize = 64 * L;

    /// Every lane set to `word`.
    #[must_use]
    pub const fn splat(word: u64) -> Self {
        PatternWords([word; L])
    }

    /// The stuck-at word: all ones for stuck-at-1, all zeros for
    /// stuck-at-0 (the wide analogue of `if v { u64::MAX } else { 0 }`).
    #[must_use]
    pub const fn stuck(value: bool) -> Self {
        if value {
            Self::splat(u64::MAX)
        } else {
            Self::ZERO
        }
    }

    /// Whether every bit is clear.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }

    /// Whether any bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        !self.is_zero()
    }

    /// One lane's raw word.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= L`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> u64 {
        self.0[lane]
    }

    /// Whether bit `k` is set.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64 * L`.
    #[must_use]
    pub fn get_bit(&self, k: usize) -> bool {
        self.0[k / 64] & (1u64 << (k % 64)) != 0
    }

    /// Set bit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64 * L`.
    pub fn set_bit(&mut self, k: usize) {
        self.0[k / 64] |= 1u64 << (k % 64);
    }

    /// Index of the lowest set bit, or `64 * L` when no bit is set (the
    /// wide analogue of `u64::trailing_zeros`).
    #[must_use]
    pub fn trailing_zeros(&self) -> usize {
        for (i, w) in self.0.iter().enumerate() {
            if *w != 0 {
                return i * 64 + w.trailing_zeros() as usize;
            }
        }
        Self::BITS
    }

    /// Number of set bits across all lanes.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The valid-pattern mask for a block holding `count` patterns: bits
    /// `0..count` set, the rest clear.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64 * L`.
    #[must_use]
    pub fn valid_mask(count: usize) -> Self {
        assert!(
            count <= Self::BITS,
            "count {count} exceeds {} bits",
            Self::BITS
        );
        let mut words = [0u64; L];
        for (i, w) in words.iter_mut().enumerate() {
            let lo = i * 64;
            *w = if count >= lo + 64 {
                u64::MAX
            } else if count > lo {
                (1u64 << (count - lo)) - 1
            } else {
                0
            };
        }
        PatternWords(words)
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn set_bits(self) -> impl Iterator<Item = usize> {
        (0..L).flat_map(move |lane| {
            let mut w = self.0[lane];
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let k = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(lane * 64 + k)
                }
            })
        })
    }
}

/// Lane-0 comparison against a bare `u64` — exact (not a projection):
/// equal only when lane 0 matches and every higher lane is zero. Keeps
/// `L = 1` call sites and tests reading like the historical `u64` code.
impl<const L: usize> PartialEq<u64> for PatternWords<L> {
    fn eq(&self, other: &u64) -> bool {
        self.0[0] == *other && self.0[1..].iter().all(|w| *w == 0)
    }
}

impl<const L: usize> std::ops::Not for PatternWords<L> {
    type Output = Self;
    fn not(mut self) -> Self {
        for w in &mut self.0 {
            *w = !*w;
        }
        self
    }
}

impl<const L: usize> std::ops::BitAnd for PatternWords<L> {
    type Output = Self;
    fn bitand(mut self, rhs: Self) -> Self {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w &= r;
        }
        self
    }
}

impl<const L: usize> std::ops::BitOr for PatternWords<L> {
    type Output = Self;
    fn bitor(mut self, rhs: Self) -> Self {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w |= r;
        }
        self
    }
}

impl<const L: usize> std::ops::BitXor for PatternWords<L> {
    type Output = Self;
    fn bitxor(mut self, rhs: Self) -> Self {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w ^= r;
        }
        self
    }
}

impl<const L: usize> std::ops::BitAndAssign for PatternWords<L> {
    fn bitand_assign(&mut self, rhs: Self) {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w &= r;
        }
    }
}

impl<const L: usize> std::ops::BitOrAssign for PatternWords<L> {
    fn bitor_assign(&mut self, rhs: Self) {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w |= r;
        }
    }
}

impl<const L: usize> std::ops::BitXorAssign for PatternWords<L> {
    fn bitxor_assign(&mut self, rhs: Self) {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w ^= r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_mask_covers_partial_lanes() {
        assert_eq!(PatternWords::<1>::valid_mask(0), 0u64);
        assert_eq!(PatternWords::<1>::valid_mask(3), 0b111u64);
        assert_eq!(PatternWords::<1>::valid_mask(64), u64::MAX);
        let m = PatternWords::<4>::valid_mask(130);
        assert_eq!(m.0, [u64::MAX, u64::MAX, 0b11, 0]);
        assert_eq!(PatternWords::<2>::valid_mask(128).0, [u64::MAX; 2]);
    }

    #[test]
    fn bit_ops_match_per_lane_u64_semantics() {
        let a = PatternWords::<2>([0b1100, 0b1010]);
        let b = PatternWords::<2>([0b1010, 0b0110]);
        assert_eq!((a & b).0, [0b1000, 0b0010]);
        assert_eq!((a | b).0, [0b1110, 0b1110]);
        assert_eq!((a ^ b).0, [0b0110, 0b1100]);
        assert_eq!((!PatternWords::<2>::ZERO).0, [u64::MAX; 2]);
        let mut c = a;
        c |= b;
        c &= PatternWords::splat(0b1111);
        c ^= a;
        assert_eq!(c, (a | b) ^ a);
    }

    #[test]
    fn bit_indexing_is_lane_major_ascending() {
        let mut w = PatternWords::<4>::ZERO;
        for k in [0usize, 63, 64, 100, 255] {
            assert!(!w.get_bit(k));
            w.set_bit(k);
            assert!(w.get_bit(k));
        }
        assert_eq!(w.count_ones(), 5);
        assert_eq!(w.trailing_zeros(), 0);
        assert_eq!(w.set_bits().collect::<Vec<_>>(), vec![0, 63, 64, 100, 255]);
        let hi = {
            let mut x = PatternWords::<4>::ZERO;
            x.set_bit(200);
            x
        };
        assert_eq!(hi.trailing_zeros(), 200);
        assert_eq!(PatternWords::<4>::ZERO.trailing_zeros(), 256);
    }

    #[test]
    fn u64_equality_is_exact_across_lanes() {
        let mut w = PatternWords::<2>::ZERO;
        w.set_bit(3);
        assert_eq!(w, 0b1000u64);
        w.set_bit(64);
        assert_ne!(w, 0b1000u64);
        assert_eq!(PatternWords::<8>::stuck(false), 0u64);
        assert!(PatternWords::<8>::stuck(true).any());
        assert_eq!(PatternWords::<1>::stuck(true), u64::MAX);
    }
}
