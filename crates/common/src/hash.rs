//! Key hashing for the executor's hash joins and hash aggregation.
//!
//! The columnar kernels fold key columns into a per-row `u64` with the
//! [`fx_mix`] chain (strings through their [`str_digest`]). Collisions
//! are resolved by comparing the actual key values, never trusting the
//! 64-bit hash alone.

#[cfg(test)]
use crate::value::Value;

/// Seed for the fx-style columnar hash chain ([`fx_mix`]).
pub const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-rotate mixing step for the columnar hash chain.
///
/// The executor's columnar operators fold each key column into a
/// per-row `u64` with this step. The hash function is a *private*
/// detail of each operator execution — candidates are always confirmed
/// by comparing the key values, and group/candidate order never depends
/// on hash values — so the kernels are free to use a cheap mix. Equal keys must still collide: numerics are fed as
/// their `f64` bit pattern with a shared tag, exactly like
/// [`crate::Value`]'s `Hash` impl, and strings as their [`str_digest`].
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
}
