//! Key hashing for hash joins, hash aggregation and Z-sets.
//!
//! Row-major keys hash through [`Value`]'s `Hash` impl ([`hash_values`]),
//! so `Int(3)` and `Float(3.0)` still collide as they must. The hasher
//! is a fixed-key SipHash-1-3-style mix via
//! [`std::collections::hash_map::DefaultHasher`] seeded identically
//! everywhere, so **the same key hashes to the same value in every
//! table** — a Z-set delta ([`crate::zset`]) consolidates its rows by
//! it. The executor's columnar kernels fold key columns with the
//! cheaper [`fx_mix`] chain instead. Either way, collisions are
//! resolved by comparing the actual key values, never trusting the
//! 64-bit hash alone.

use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hash an already-projected key tuple.
///
/// Equal keys (under [`Value`]'s cross-numeric equality) hash equally,
/// on any thread.
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// A map keyed by an already-computed 64-bit key hash.
///
/// The key *is* a SipHash output, so running it through the map's own
/// SipHash again on every insert and lookup would only burn cycles.
/// [`Prehashed`] passes the key straight through as the bucket hash.
pub type PrehashedMap<V> = std::collections::HashMap<u64, V, BuildPrehashed>;

/// `BuildHasher` for [`PrehashedMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildPrehashed;

impl std::hash::BuildHasher for BuildPrehashed {
    type Hasher = Prehashed;
    fn build_hasher(&self) -> Prehashed {
        Prehashed(0)
    }
}

/// Identity hasher over a single `u64` write (see [`PrehashedMap`]).
#[derive(Debug, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are expected; fold anything else in cheaply so
        // the hasher stays total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// Seed for the fx-style columnar hash chain ([`fx_mix`]).
pub const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-rotate mixing step for the columnar hash chain.
///
/// The row-major tables ([`hash_values`]: Z-sets) hash
/// through [`std::collections::hash_map::DefaultHasher`]
/// (SipHash), which costs more per value than some whole batch kernels.
/// The executor's columnar operators instead fold each key column into
/// a per-row `u64` with this multiply-rotate step. The hash function is
/// a *private* detail of each operator execution — candidates are always
/// confirmed by comparing the key values, and group/candidate order
/// never depends on hash values — so the kernels are free to use a
/// cheap mix. Equal keys must still collide: numerics are fed as
/// their `f64` bit pattern with a shared tag, exactly like
/// [`Value`]'s `Hash` impl, and strings as their [`str_digest`].
#[inline]
pub fn fx_mix(h: u64, x: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    (h ^ x).rotate_left(23).wrapping_mul(K)
}

/// Digest of one string: a pure function of its bytes (length-suffixed
/// 8-byte chunks, so `"ab"` and `"ab\0"` differ), independent of where
/// the string sits in a key. A string dictionary computes it once per
/// entry ([`crate::column::StrDict`]); everything else computes it on
/// the fly — both feed the same mixing step, so a coded column and a
/// bare string fold equal strings identically.
#[inline]
pub fn str_digest(s: &str) -> u64 {
    let mut h = fx_mix(FX_SEED, 1); // Str tag, mirroring Value::hash
    let mut chunks = s.as_bytes().chunks_exact(8);
    for chunk in &mut chunks {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        h = fx_mix(h, u64::from_le_bytes(buf));
    }
    // The zero-padded tail, assembled in a register: a variable-length
    // copy would be a `memcpy` call per string.
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let word = tail
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        h = fx_mix(h, word);
    }
    fx_mix(h, s.len() as u64)
}

/// Fold a string into the hash chain: one mixing step over its
/// [`str_digest`]. The chain is order-sensitive, so the keys
/// `("ab", "c")` and `("a", "bc")` — or `("a", "b")` and `("b", "a")` —
/// do not collide by construction.
#[cfg(test)]
pub(crate) fn fx_str(h: u64, s: &str) -> u64 {
    fx_mix(h, str_digest(s))
}

/// Fold one [`Value`] into the hash chain with the same cross-numeric
/// collision guarantee as [`Value`]'s `Hash` impl: `Int(3)` and
/// `Float(3.0)` produce the same chain, and a string folds as
/// `fx_str` — exactly what a dictionary-coded column folds from its
/// stored digests. The scalar form of the column chains, which they are
/// checked against.
#[cfg(test)]
pub(crate) fn fx_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Int(i) => fx_mix(fx_mix(h, 0), (*i as f64).to_bits()),
        Value::Float(f) => fx_mix(fx_mix(h, 0), f.to_bits()),
        Value::Str(s) => fx_str(h, s),
        Value::Bool(b) => fx_mix(fx_mix(h, 2), u64::from(*b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::tuple::Tuple;

    #[test]
    fn fx_cross_numeric_values_collide() {
        assert_eq!(
            fx_value(FX_SEED, &Value::Int(3)),
            fx_value(FX_SEED, &Value::Float(3.0))
        );
        assert_ne!(
            fx_value(FX_SEED, &Value::Int(3)),
            fx_value(FX_SEED, &Value::Int(4))
        );
    }

    #[test]
    fn fx_str_is_length_suffixed() {
        let ab_c = fx_str(fx_str(FX_SEED, "ab"), "c");
        let a_bc = fx_str(fx_str(FX_SEED, "a"), "bc");
        assert_ne!(ab_c, a_bc);
        assert_eq!(fx_str(FX_SEED, "hello"), fx_str(FX_SEED, "hello"));
        assert_ne!(str_digest("ab"), str_digest("ab\0"));
        assert_ne!(str_digest(""), str_digest("\0"));
    }

    #[test]
    fn fx_str_is_one_step_over_the_digest() {
        // The contract dictionary-coded columns rely on.
        for s in ["", "a", "exactly8", "more than eight bytes"] {
            let h = fx_mix(FX_SEED, 42);
            assert_eq!(fx_str(h, s), fx_mix(h, str_digest(s)));
            assert_eq!(fx_value(h, &Value::str(s)), fx_str(h, s));
        }
        let a_b = fx_str(fx_str(FX_SEED, "a"), "b");
        let b_a = fx_str(fx_str(FX_SEED, "b"), "a");
        assert_ne!(a_b, b_a, "the chain is order-sensitive");
    }

    /// The hash of the projection `pos` of `row`.
    fn hash_projection(row: &Tuple, pos: &[usize]) -> u64 {
        hash_values(row.project(pos).values())
    }

    #[test]
    fn equal_keys_hash_equally_without_cloning() {
        let a = tuple![1i64, "x", 3.5f64];
        let b = tuple!["pad", 1i64, 3.5f64, "x"];
        // a[0,1,2] vs b[1,3,2] project the same key.
        assert_eq!(
            hash_projection(&a, &[0, 1, 2]),
            hash_projection(&b, &[1, 3, 2])
        );
    }

    #[test]
    fn cross_numeric_keys_collide_as_required() {
        let a = tuple![3i64];
        let b = tuple![3.0f64];
        assert_eq!(hash_projection(&a, &[0]), hash_projection(&b, &[0]));
    }

    #[test]
    fn different_keys_compare_unequal() {
        let a = tuple![1i64, 2i64];
        let b = tuple![1i64, 3i64];
        assert_ne!(hash_projection(&a, &[0, 1]), hash_projection(&b, &[0, 1]));
    }

    #[test]
    fn prehashed_map_roundtrips_u64_keys() {
        let mut m: PrehashedMap<i32> = PrehashedMap::default();
        for k in [0u64, 1, u64::MAX, 0xdead_beef] {
            m.insert(k, (k % 97) as i32);
        }
        for k in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(m[&k], (k % 97) as i32);
        }
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn empty_key_is_consistent() {
        // Degenerate grouping (global aggregate routed through the same
        // code path): every row has the same empty key.
        let a = tuple![1i64];
        let b = tuple!["z"];
        assert_eq!(hash_projection(&a, &[]), hash_projection(&b, &[]));
    }
}
