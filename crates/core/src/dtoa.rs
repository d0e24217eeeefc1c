//! Shortest round-trip decimal text for `f64`, in the layout of
//! `Display`, for the compact JSON writer.
//!
//! The digits are those of Schubfach (R. Giulietti, "The Schubfach way
//! to render doubles", 2020): with the power of ten `10^k` chosen just
//! below the width of the value's rounding interval, that interval
//! holds at most one multiple of `10^(k+1)` and at least one of `10^k`.
//! So the shortest decimal that reads back as the value is that
//! multiple of `10^(k+1)` when there is one, and otherwise the closer
//! of the two multiples of `10^k` around the value. Both tests need
//! the value scaled by `10^-k` only to a few bits, which one 126-bit
//! power of ten and a round-to-odd product give exactly.
//!
//! Where two decimals are equally close, `core::fmt` (Dragon4's
//! shortest mode) takes the larger one and so does this writer, so the
//! text is byte for byte what `format!("{v}")` writes. The same holds
//! for the rounding interval: it includes its ends when the stored
//! significand is even (always, for a subnormal), and it is narrower
//! below every power of two, `f64::MIN_POSITIVE` included.

/// `floor(log10(2^e))`, exact for `|e| <= 5_456_721`.
const fn flog10_pow2(e: i32) -> i32 {
    ((e as i64 * 661_971_961_083) >> 41) as i32
}

/// `floor(log10(3/4 · 2^e))`, exact for `|e| <= 5_456_721`.
const fn flog10_three_quarters_pow2(e: i32) -> i32 {
    ((e as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `floor(log2(10^e))`, exact for `|e| <= 1_838_394`.
const fn flog2_pow10(e: i32) -> i32 {
    ((e as i64 * 913_124_641_741) >> 38) as i32
}

/// Smallest and largest `e` of a `10^e` the writer scales by: `-k` for
/// the decimal exponents `k` of the finite non-zero `f64`s.
const E_MIN: i32 = -292;
const E_MAX: i32 = 324;
const TABLE_LEN: usize = (E_MAX - E_MIN + 1) as usize;

/// `u64` limbs of the big integers the table is built from: `10^324`
/// and `2^BIG_SHIFT` both fit.
const LIMBS: usize = 18;
const BIG_SHIFT: usize = 64 * LIMBS - 2;

/// `G[e - E_MIN] = floor(10^e · 2^-r) + 1` with `r = flog2_pow10(e) -
/// 125`, so each entry lies in `[2^125, 2^126)`.
static G: [u128; TABLE_LEN] = pow10_table();

/// The 126 leading bits of `n`, plus one. Panics (at compile time)
/// unless the discarded low bits number `flog2_pow10(e) - 125`, which
/// pins the `flog2_pow10` approximation to the table.
const fn leading_bits_plus_one(n: &[u64; LIMBS], e: i32) -> u128 {
    let mut top = LIMBS - 1;
    while n[top] == 0 {
        top -= 1;
    }
    let bits = 64 * top as i32 + 64 - n[top].leading_zeros() as i32;
    let (e_bits, shift) = if e >= 0 {
        (bits - 1, bits - 126)
    } else {
        // n = floor(2^BIG_SHIFT / 10^-e), so log2(10^e) lies in
        // (bits - 1 - BIG_SHIFT, bits - BIG_SHIFT).
        (bits - 1 - BIG_SHIFT as i32, bits - 126)
    };
    assert!(e_bits == flog2_pow10(e), "flog2_pow10 is off");
    let g = if shift <= 0 {
        (n[0] as u128 | (n[1] as u128) << 64) << -shift
    } else {
        let (w, b) = ((shift / 64) as usize, (shift % 64) as u32);
        let low = (n[w] as u128 | (n[w + 1] as u128) << 64) >> b;
        let high = if b > 0 && w + 2 < LIMBS {
            (n[w + 2] as u128) << (128 - b)
        } else {
            0
        };
        low | high
    };
    g + 1
}

/// The table behind [`G`], computed at compile time: `10^e` exactly
/// for `e >= 0`, and `floor(2^BIG_SHIFT / 10^-e)` by repeated long
/// division by ten for `e < 0`, each cut to its 126 leading bits.
const fn pow10_table() -> [u128; TABLE_LEN] {
    let mut table = [0u128; TABLE_LEN];
    let mut n = [0u64; LIMBS];
    n[0] = 1;
    let mut e = 0;
    while e <= E_MAX {
        table[(e - E_MIN) as usize] = leading_bits_plus_one(&n, e);
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let x = n[i] as u128 * 10 + carry;
            n[i] = x as u64;
            carry = x >> 64;
            i += 1;
        }
        e += 1;
    }
    let mut n = [0u64; LIMBS];
    n[BIG_SHIFT / 64] = 1 << (BIG_SHIFT % 64);
    let mut e = -1;
    while e >= E_MIN {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let x = rem << 64 | n[i] as u128;
            n[i] = (x / 10) as u64;
            rem = x % 10;
        }
        table[(e - E_MIN) as usize] = leading_bits_plus_one(&n, e);
        e -= 1;
    }
    table
}

/// `g · cp / 2^127`, rounded to odd: the integer part, its lowest bit
/// set when a fraction remains. As in Giulietti's reference code, `g`
/// is split at bit 63 and the quotient kept to 63 fractional bits;
/// dropping the finer ones is what lets an exact power of ten (where
/// `g` is one above `10^e · 2^-r`) scale exactly, and the proof covers
/// the rest.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    const LOW_63: u64 = u64::MAX >> 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & LOW_63);
    let x1 = ((g0 as u128 * cp as u128) >> 64) as u64;
    let y = g1 as u128 * cp as u128;
    let z = (y as u64 >> 1) + x1;
    let integral = (y >> 64) as u64 + (z >> 63);
    integral | ((z & LOW_63) + LOW_63) >> 63
}

/// The shortest decimal `f · 10^k` that reads back as the finite,
/// positive `v`, with trailing zeros left in `f`.
fn shortest(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let (biased, fraction) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    let (c, q, inclusive) = if biased == 0 {
        (fraction, -1074, true)
    } else {
        (fraction | 1 << 52, biased - 1075, fraction & 1 == 0)
    };
    // Four times the value and its interval ends, in units of 2^q / 4.
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if biased != 0 && fraction == 0 {
        // Below a power of two the lower neighbour is twice as close.
        (cb - 1, flog10_three_quarters_pow2(q))
    } else {
        (cb - 2, flog10_pow2(q))
    };
    let h = q + flog2_pow10(-k) + 2;
    let g = G[(-k - E_MIN) as usize];
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);
    // Strict ends of an exclusive interval: one quarter-unit inward.
    let out = (!inclusive) as u64;

    let s = vb >> 2;
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let upin = vbl + out <= sp10 << 2;
    let wpin = (tp10 << 2) + out <= vbr;
    if upin != wpin {
        return (if upin { sp10 } else { tp10 }, k);
    }
    let t = s + 1;
    let uin = vbl + out <= s << 2;
    let win = (t << 2) + out <= vbr;
    if uin != win {
        return (if uin { s } else { t }, k);
    }
    // Both neighbours read back: the closer one, the larger on a tie.
    (if vb < (s + t) << 1 { s } else { t }, k)
}

/// Append `v`'s decimal digits.
pub(crate) fn push_u64(v: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    out.extend_from_slice(digits(v, &mut buf));
}

/// `v`'s decimal digits, written into the tail of `buf`.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    &buf[i..]
}

/// `"000102…99"`: two ASCII digits per number below one hundred.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `v` as the generic JSON writer formats it: integral values
/// below `1e15` with a trailing `.0` (`-0.0` included), non-finite
/// values as `null`, and everything else as `format!("{v}")` writes
/// it: the shortest decimal that reads back as `v`, positional, never
/// with an exponent.
pub(crate) fn push_f64(v: f64, out: &mut Vec<u8>) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let v = v.abs();
    if v == v.trunc() && v < 1e15 {
        push_u64(v as u64, out);
        out.extend_from_slice(b".0");
        return;
    }
    let (mut f, mut k) = shortest(v);
    while f % 10 == 0 {
        f /= 10;
        k += 1;
    }
    let mut buf = [0u8; 20];
    let digits = digits(f, &mut buf);
    // The value is 0.<digits> · 10^point.
    let point = k + digits.len() as i32;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rules the compact writer has always followed: `Display`,
    /// plus `.0` on small integral values and `null` off the reals.
    fn oracle(v: f64) -> String {
        if !v.is_finite() {
            "null".to_string()
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    }

    fn written(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(v, &mut out);
        String::from_utf8(out).expect("the writer emits ASCII")
    }

    fn assert_matches_oracle(v: f64) {
        assert_eq!(written(v), oracle(v), "bits {:#018x}", v.to_bits());
    }

    /// Deterministic 64-bit generator (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bit_patterns(count: usize, seed: u64) {
        let mut state = seed;
        for _ in 0..count {
            assert_matches_oracle(f64::from_bits(splitmix(&mut state)));
        }
    }

    #[test]
    fn special_values_match_display() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.1 + 0.2,
            1.0 / 3.0,
            f64::EPSILON,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * (1.0 - f64::EPSILON),
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(3),
            f64::from_bits((1 << 52) - 1),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            // The 1e15 boundary of the integral rule, both sides.
            1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 + 2.0,
            999_999_999_999_999.9,
            (1u64 << 53) as f64,
            ((1u64 << 53) - 1) as f64,
            1e20,
            1e21,
            1e22,
            1e23,
            // Ties between two shortest candidates round up, as in
            // Dragon4: 2^49 + 0.25 prints as 562949953421312.3.
            (1u64 << 49) as f64 + 0.25,
            (1u64 << 49) as f64 + 0.75,
            5e-324,
            2.2250738585072014e-308,
            1.7976931348623157e308,
            9007199254740993.0,
            123_456.789e-20,
        ];
        for v in specials {
            assert_matches_oracle(v);
        }
    }

    #[test]
    fn powers_of_two_and_ten_match_display() {
        for e in -1074..=1023 {
            let bits = if e >= -1022 {
                ((e + 1023) as u64) << 52
            } else {
                1 << (e + 1074)
            };
            for w in [bits, bits + 1, bits - 1, bits | 1 << 63] {
                assert_matches_oracle(f64::from_bits(w));
            }
        }
        for e in -323..=308 {
            let v: f64 = format!("1e{e}").parse().unwrap();
            for w in [
                v,
                f64::from_bits(v.to_bits() + 1),
                f64::from_bits(v.to_bits() - 1),
            ] {
                assert_matches_oracle(w);
            }
        }
    }

    #[test]
    fn subnormals_match_display() {
        for c in 1..2000u64 {
            assert_matches_oracle(f64::from_bits(c));
            assert_matches_oracle(f64::from_bits((1 << 52) - c));
        }
    }

    #[test]
    fn table_ends_match_display() {
        // The smallest and largest decimal exponents the table serves:
        // the least subnormal and the greatest finite value, and their
        // neighbours on both sides of the range edges.
        for bits in [
            1,
            2,
            0x0010_0000_0000_0000,
            0x7fef_ffff_ffff_ffff,
            0x7fef_ffff_ffff_fffe,
        ] {
            assert_matches_oracle(f64::from_bits(bits));
        }
        assert_eq!(G.first().map(|g| g >> 125), Some(1));
        assert_eq!(G.last().map(|g| g >> 125), Some(1));
    }

    #[test]
    fn served_range_matches_display() {
        // Objectives sit near 1: uniform doubles over [0, 4) and their
        // 1-ulp neighbours.
        let mut state = 7;
        for _ in 0..200_000 {
            let v = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 4.0;
            assert_matches_oracle(v);
            assert_matches_oracle(f64::from_bits(v.to_bits() + 1));
        }
    }

    #[test]
    fn golden_numbers_match_display() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut count = 0;
        for file in ["tests/acceptance/serve.jsonl", "reproduction.json"] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            for token in number_tokens(&text) {
                if let Ok(v) = token.parse::<f64>() {
                    assert_matches_oracle(v);
                    count += 1;
                }
            }
        }
        assert!(count > 5_000, "only {count} numeric tokens found");
    }

    /// The maximal runs of number characters that start like a number.
    /// A run glued to a word ("sv12") yields a harmless extra token.
    fn number_tokens(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .filter(|t| t.starts_with(|c: char| c.is_ascii_digit() || c == '-'))
    }

    #[test]
    fn random_bit_patterns_match_display() {
        random_bit_patterns(1_000_000, 0x5eed);
    }

    /// The nightly variant: ten million more patterns.
    #[test]
    #[ignore]
    fn random_bit_patterns_match_display_nightly() {
        random_bit_patterns(10_000_000, 0x0dd5_eed5);
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 3505, 4_294_967_295, u64::MAX] {
            let mut out = Vec::new();
            push_u64(v, &mut out);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
