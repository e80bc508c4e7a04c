//! Precomputed tables for O(1)-per-byte sliding-window Rabin fingerprints.
//!
//! The fingerprint of a window `b_0 … b_{w-1}` is
//! `(Σ b_i · x^{8(w−1−i)}) mod P` for an irreducible polynomial `P` of
//! degree `k`. Two tables make the per-byte update constant time:
//!
//! * the **push** table `T[t] = (t · x^k) mod P` folds the byte shifted
//!   out of the top of the `k`-bit register back into the remainder when
//!   appending a new byte (`fp ← ((fp << 8) | b) mod P`);
//! * the **pop** table `U[b] = (b · x^{8(w−1)}) mod P` removes the oldest
//!   byte's contribution when the window slides.
//!
//! The same table pair drives the sequential CPU chunker, the parallel
//! SPMD chunker, and both GPU kernels, so all four produce bit-identical
//! fingerprints (and therefore identical chunk boundaries).

use crate::poly::Polynomial;

/// Precomputed push/pop tables for a (polynomial, window) pair.
///
/// # Examples
///
/// ```
/// use shredder_rabin::{Polynomial, RabinTables};
///
/// let tables = RabinTables::new(Polynomial::LBFS, 48);
/// let mut fp = 0u64;
/// for &b in b"some window of data, at least 48 bytes long....." {
///     fp = tables.push(fp, b);
/// }
/// assert!(fp < 1 << 53); // remainder has degree < deg(P)
/// ```
#[derive(Clone)]
pub struct RabinTables {
    poly: Polynomial,
    window: usize,
    degree: u32,
    /// Masks a fingerprint to `degree` bits.
    fp_mask: u64,
    /// `push[t] = (t · x^degree) mod P` for every top-byte value `t`.
    push: [u64; 256],
    /// `pop[b] = (b · x^{8(window−1)}) mod P` for every byte value `b`.
    pop: [u64; 256],
}

impl RabinTables {
    /// Builds tables for fingerprinting with modulus `poly` over windows
    /// of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `poly` has degree < 9 (the top-byte folding step needs
    /// `k ≥ 9` so that shifting in 8 bits cannot overflow 64 bits and the
    /// remainder keeps at least one un-shifted bit), or if `window == 0`.
    pub fn new(poly: Polynomial, window: usize) -> Self {
        let degree = poly.degree().expect("modulus must be non-zero");
        assert!(degree >= 9, "modulus degree must be >= 9, got {degree}");
        assert!(
            degree <= 56,
            "modulus degree must be <= 56 so fp<<8 fits in u64"
        );
        assert!(window > 0, "window must be non-zero");

        let fp_mask = (1u64 << degree) - 1;

        // push[t] = (t * x^degree) mod P
        let push = linear_table(x_pow_mod(degree, poly), poly);
        // pop[b] = (b * x^{8(window-1)}) mod P
        let pop = linear_table(x_pow_mod(8 * (window as u32 - 1), poly), poly);

        RabinTables {
            poly,
            window,
            degree,
            fp_mask,
            push,
            pop,
        }
    }

    /// Builds the paper-default tables: LBFS degree-53 polynomial,
    /// 48-byte window (§3.1).
    pub fn paper() -> Self {
        RabinTables::new(Polynomial::LBFS, 48)
    }

    /// The modulus polynomial.
    pub fn polynomial(&self) -> Polynomial {
        self.poly
    }

    /// The sliding-window width in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The degree of the modulus (the fingerprint width in bits).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Appends byte `b` to fingerprint `fp`: `(fp · x^8 + b) mod P`.
    #[inline]
    pub fn push(&self, fp: u64, b: u8) -> u64 {
        let top = (fp >> (self.degree - 8)) as usize & 0xff;
        (((fp << 8) | b as u64) & self.fp_mask) ^ self.push[top]
    }

    /// Removes the oldest window byte `b_out`'s contribution from `fp`.
    ///
    /// Must be called *before* [`push`](Self::push)ing the incoming byte,
    /// once the window is full.
    #[inline]
    pub fn pop(&self, fp: u64, b_out: u8) -> u64 {
        fp ^ self.pop[b_out as usize]
    }

    /// Slides the window: removes `b_out`, appends `b_in`.
    #[inline]
    pub fn slide(&self, fp: u64, b_out: u8, b_in: u8) -> u64 {
        self.push(self.pop(fp, b_out), b_in)
    }

    /// Fingerprints a full window from scratch in O(w).
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != self.window()`.
    pub fn fingerprint(&self, window: &[u8]) -> u64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        let mut fp = 0u64;
        for &b in window {
            fp = self.push(fp, b);
        }
        fp
    }
}

impl std::fmt::Debug for RabinTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RabinTables")
            .field("poly", &self.poly)
            .field("window", &self.window)
            .field("degree", &self.degree)
            .finish()
    }
}

/// The table `T[t] = (t · m) mod P` for every byte value `t`.
///
/// Multiplication by `m` is linear over GF(2), so `T[a ^ b] = T[a] ^
/// T[b]`: the eight single-bit entries take one `mul_mod` each and every
/// other entry is the XOR of its lowest set bit's entry and the entry
/// with that bit cleared, which is already filled.
fn linear_table(m: Polynomial, poly: Polynomial) -> [u64; 256] {
    let mut table = [0u64; 256];
    for bit in 0..8 {
        table[1 << bit] = Polynomial::new(1 << bit).mul_mod(m, poly).bits();
    }
    for t in 3..256usize {
        let low = t & t.wrapping_neg();
        if low != t {
            table[t] = table[t ^ low] ^ table[low];
        }
    }
    table
}

/// Computes `x^e mod P` by repeated multiply-by-x.
fn x_pow_mod(e: u32, poly: Polynomial) -> Polynomial {
    let x = Polynomial::new(2);
    let mut acc = Polynomial::ONE;
    for _ in 0..e {
        acc = acc.mul_mod(x, poly);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> RabinTables {
        RabinTables::paper()
    }

    /// Reference implementation: fingerprint the window by building the
    /// full polynomial with mul_mod, no tables.
    fn reference_fingerprint(window: &[u8], poly: Polynomial) -> u64 {
        let x8 = x_pow_mod(8, poly);
        let mut fp = Polynomial::ZERO;
        for &b in window {
            fp = fp
                .mul_mod(x8, poly)
                .add(Polynomial::new(b as u64).rem(poly));
        }
        fp.bits()
    }

    #[test]
    fn push_matches_reference() {
        let t = tables();
        let window: Vec<u8> = (0..48u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        assert_eq!(
            t.fingerprint(&window),
            reference_fingerprint(&window, t.polynomial())
        );
    }

    #[test]
    fn sliding_matches_from_scratch() {
        let t = tables();
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(101) >> 3) as u8)
            .collect();
        let w = t.window();

        // Prime the window.
        let mut fp = t.fingerprint(&data[..w]);
        for i in w..data.len() {
            fp = t.slide(fp, data[i - w], data[i]);
            let from_scratch = t.fingerprint(&data[i + 1 - w..=i]);
            assert_eq!(fp, from_scratch, "position {i}");
        }
    }

    #[test]
    fn fingerprint_is_window_local() {
        // Identical windows in different surroundings produce identical
        // fingerprints (the property CDC depends on).
        let t = tables();
        let w = t.window();
        let window: Vec<u8> = (0..w as u8).collect();

        let mut a = vec![0xaau8; 100];
        a.extend_from_slice(&window);
        let mut b = vec![0x55u8; 311];
        b.extend_from_slice(&window);

        let fa = t.fingerprint(&a[a.len() - w..]);
        let fb = t.fingerprint(&b[b.len() - w..]);
        assert_eq!(fa, fb);
    }

    #[test]
    fn fp_stays_below_degree_bits() {
        let t = tables();
        let mut fp = 0u64;
        for i in 0..10_000u32 {
            fp = t.push(fp, (i % 251) as u8);
            assert!(fp < (1 << t.degree()), "fp overflowed at byte {i}");
        }
    }

    #[test]
    fn zero_window_fingerprints_to_zero() {
        let t = tables();
        assert_eq!(t.fingerprint(&vec![0u8; t.window()]), 0);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn fingerprint_rejects_wrong_length() {
        tables().fingerprint(&[0u8; 3]);
    }

    #[test]
    fn different_polynomials_give_different_fingerprints() {
        let w = 48;
        let t1 = RabinTables::new(Polynomial::LBFS, w);
        // Another irreducible polynomial (degree 31: x^31 + x^3 + 1).
        let p2 = Polynomial::new((1 << 31) | 0b1001);
        assert!(p2.is_irreducible());
        let t2 = RabinTables::new(p2, w);
        let window: Vec<u8> = (1..=w as u8).collect();
        assert_ne!(t1.fingerprint(&window), t2.fingerprint(&window));
    }

    /// Reference construction: one `mul_mod` per table entry.
    fn per_entry_tables(poly: Polynomial, window: usize) -> ([u64; 256], [u64; 256]) {
        let degree = poly.degree().unwrap();
        let x_k = x_pow_mod(degree, poly);
        let x_out = x_pow_mod(8 * (window as u32 - 1), poly);
        let mut push = [0u64; 256];
        let mut pop = [0u64; 256];
        for t in 0..256 {
            push[t] = Polynomial::new(t as u64).mul_mod(x_k, poly).bits();
            pop[t] = Polynomial::new(t as u64).mul_mod(x_out, poly).bits();
        }
        (push, pop)
    }

    #[test]
    fn linear_tables_equal_per_entry_construction() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut polys = vec![Polynomial::LBFS, Polynomial::new((1 << 31) | 0b1001)];
        for degree in [9, 32, 47, 56] {
            polys.push(Polynomial::random_irreducible(degree, &mut next));
        }
        for poly in polys {
            assert!(poly.is_irreducible(), "{poly:?}");
            for window in [1usize, 2, 16, 48, 64, 257] {
                let t = RabinTables::new(poly, window);
                let (push, pop) = per_entry_tables(poly, window);
                assert_eq!(t.push, push, "push {poly:?} window {window}");
                assert_eq!(t.pop, pop, "pop {poly:?} window {window}");
            }
        }
    }

    #[test]
    fn small_degree_window_one() {
        // window = 1: pop table is (b * x^0) = b mod P.
        let p = Polynomial::new((1 << 13) | 0b1011); // x^13 + x^3 + x + 1 (maybe reducible; fine for tables)
        let t = RabinTables::new(p, 1);
        let fp = t.fingerprint(&[0x42]);
        assert_eq!(fp, 0x42);
    }
}
