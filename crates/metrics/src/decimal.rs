//! Exact shortest round-trip rendering of a fractional `f64`, written
//! with integer arithmetic instead of `core::fmt`.
//!
//! [`write_shortest`] appends the bytes `format!("{v}")` would append,
//! or declines and appends nothing. [`crate::jsonl::write_f64`] calls it
//! for every non-integer and falls back to `Display` on a decline, so a
//! case the kernel cannot decide exactly is never guessed.
//!
//! **Domain.** A normal `f64` whose significand is not a power of two
//! and whose value is fractional with `1e-3 <= |v| < 2^53`. Then
//! `v = m / 2^s` with `2^52 <= m < 2^53` and `1 <= s <= 62`, and the
//! neighbouring doubles sit at `v ± 2^-s`, so the reals that round to
//! `v` form an interval symmetric about it. A power-of-two significand
//! has a closer lower neighbour (an asymmetric interval) and is
//! declined.
//!
//! **Interval.** `Display` prints the shortest decimal that rounds back
//! to `v`, and among those the one closest to `v`. On a grid of
//! `10^-k`, with `k` read from a per-binade table so that `v` has at
//! least 17 significant digits on it, the interval is
//! `((2m - 1)·10^k, (2m + 1)·10^k) / 2^(s+1)` grid units. Every factor
//! is an integer below `2^118`, so `u128` holds it exactly. The interval
//! is wider than one grid unit (`2^-s > v·2^-53 > 10^-k`), so at least
//! one grid point lies strictly inside it, as 17 digits always suffice
//! for a double.
//!
//! **Shortest, then closest.** Digits are stripped while a multiple of
//! `10^(j+1)` still lies strictly inside the interval; the largest such
//! `j` gives the shortest length. The exact value is then rounded to the
//! nearest multiple of `10^j`. The interval is symmetric about `v`, so
//! the nearest multiple is inside whenever any multiple is: that is the
//! closest candidate of the shortest length, which is what `Display`
//! prints.
//!
//! **Declines.** Besides anything outside the domain, the kernel
//! declines when an interval boundary is itself a grid point (where
//! `Display` treats the boundary as inside for an even significand, and
//! a candidate could land on it) and on an exact tie between two
//! candidates (`Display` breaks ties its own way). A boundary is a grid
//! point only when `k > s`, which the domain never reaches, so that
//! check is a guard. A tie needs `v·10^k` to end in exactly one half
//! at the chosen length, which only a short binary expansion gives
//! (`1 + 2^-17` is one); measured values almost never do.
//!
//! The digits are rendered without an exponent, as `Display` writes
//! them, two at a time from a table built by `const fn`.

use std::cmp::Ordering;

/// `10^i` for `i` in `0..20`, built at compile time.
const POW10: [u64; 20] = pow10_table();

const fn pow10_table() -> [u64; 20] {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < table.len() {
        // lint:allow(index) -- const evaluation: an out-of-range index is a compile error, not a runtime panic
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
}

/// Smallest biased exponent of the domain: `1e-3 > 2^-10`.
const MIN_BIASED: u64 = 1023 - 10;

/// The grid exponent `k` for each binade `[2^x, 2^(x+1))` of the domain,
/// `x = biased - 1023` from -10 to 51: `16 - floor(log10(lo))` where `lo`
/// is the binade's least value in the domain (`2^x`, or `1e-3` for the
/// lowest binade). Every value of the binade then has at least 17
/// significant digits on the `10^-k` grid, `v·10^k < 2·10^17` still
/// fits a `u64`, and `k <= 19`.
const GRID_EXP: [usize; 62] = grid_exp_table();

const fn grid_exp_table() -> [usize; 62] {
    let mut table = [0usize; 62];
    let mut i = 0;
    while i < table.len() {
        let x = i as i64 - 10;
        // Decimal digits of 2^|x|; floor(log10(2^x)) is one less for
        // x >= 0 and its negation for x < 0 (2^|x| is never a power of
        // ten past x = 0). The domain starts at 1e-3, inside x = -10.
        let mut p = 1u64 << x.unsigned_abs();
        let mut digits = 0i64;
        while p > 0 {
            p /= 10;
            digits += 1;
        }
        let log = if x >= 0 {
            digits - 1
        } else if digits > 3 {
            -3
        } else {
            -digits
        };
        // lint:allow(index) -- const evaluation: an out-of-range index is a compile error, not a runtime panic
        table[i] = (16 - log) as usize;
        i += 1;
    }
    table
}

/// `"00" "01" … "99"`: the two ASCII digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = digit_pair_table();

const fn digit_pair_table() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        // lint:allow(index) -- const evaluation: an out-of-range index is a compile error, not a runtime panic
        table[2 * i] = b'0' + (i / 10) as u8;
        // lint:allow(index) -- const evaluation: an out-of-range index is a compile error, not a runtime panic
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

/// Longest rendering: a sign, `0.` and 19 fraction digits (or 16
/// integer digits, a point and one fraction digit).
const BUF_LEN: usize = 24;

/// `10^i`, or 0 past the table (never reached: callers stay below 20).
// hot-path
fn pow10(i: usize) -> u64 {
    POW10.get(i).copied().unwrap_or(0)
}

/// Appends `v` exactly as `format!("{v}")` writes it and returns `true`,
/// or returns `false` with `out` untouched when `v` is outside the
/// kernel's domain or the exact check cannot decide (see the module
/// doc).
// hot-path
pub(crate) fn write_shortest(out: &mut String, v: f64) -> bool {
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7FF;
    let fraction = bits & ((1 << 52) - 1);
    let abs = v.abs();
    // Zero, subnormals, power-of-two significands and |v| >= 2^52 (no
    // fraction bits left) are out; so is anything below 1e-3, which
    // also bounds `s` by 62.
    if biased == 0 || fraction == 0 || biased >= 1075 || abs < 1e-3 {
        return false;
    }
    let m = fraction | (1 << 52);
    let s = 1075 - biased;
    if m & ((1 << s) - 1) == 0 {
        return false;
    }
    // At least 17 significant digits on the grid (see `GRID_EXP`).
    let Some(&k) = GRID_EXP.get(biased.wrapping_sub(MIN_BIASED) as usize) else {
        return false;
    };
    let int = abs as u64;
    // In grid units times 2^(s+1): the exact value and the interval.
    let unit = u128::from(pow10(k));
    let mid = u128::from(m << 1) * unit;
    let lo = mid - unit;
    let hi = mid + unit;
    let shift = s + 1;
    let mask = (1u128 << shift) - 1;
    if lo & mask == 0 || hi & mask == 0 {
        return false;
    }
    // Grid points strictly inside: lo_floor < N <= hi_floor.
    let lo_floor = (lo >> shift) as u64;
    let hi_floor = (hi >> shift) as u64;
    if hi_floor <= lo_floor {
        return false;
    }
    // Shortest: strip a digit while a multiple of 10^(j+1) is inside.
    // The exact value v·10^k = q·10^j + last·10^(j-1) + tail keeps
    // its quotient `q`, the last digit stripped and whether the tail
    // below that digit (the fraction `rem / 2^(s+1)` included) is zero.
    let rem = mid & mask;
    let mut q = (mid >> shift) as u64;
    let (mut top, mut bottom) = (hi_floor, lo_floor);
    let (mut j, mut last, mut tail_zero) = (0usize, 0u64, rem == 0);
    while top / 10 > bottom / 10 {
        top /= 10;
        bottom /= 10;
        tail_zero &= last == 0;
        last = q % 10;
        q /= 10;
        j += 1;
    }
    // Closest: round to the nearest multiple of 10^j, declining a tie.
    // Below the last stripped digit (or, with none, below the grid) lies
    // a remainder; `half` orders it against one half of a unit.
    let grid_half = (rem << 1).cmp(&(1u128 << shift));
    let digit_half = match last.cmp(&5) {
        Ordering::Equal if !tail_zero => Ordering::Greater,
        order => order,
    };
    let half = if j == 0 { grid_half } else { digit_half };
    if half == Ordering::Equal {
        return false;
    }
    q += u64::from(half == Ordering::Greater);
    let candidate = q * pow10(j);
    if candidate <= lo_floor || candidate > hi_floor || j >= k {
        return false;
    }
    // v ≈ q · 10^-(k-j). No integer lies in the interval, so the
    // candidate's integer part is v's: the fraction digits are what q
    // holds beyond it.
    let frac_digits = k - j;
    let scale = pow10(frac_digits);
    let Some(fraction) = q.checked_sub(int * scale).filter(|&f| f < scale) else {
        return false;
    };
    let mut buf = [b'0'; BUF_LEN];
    // `buf` is all '0', so the fraction's leading zeros are in place.
    let point = BUF_LEN - frac_digits - 1;
    put_digits(&mut buf, BUF_LEN, fraction);
    if let Some(b) = buf.get_mut(point) {
        *b = b'.';
    }
    let mut at = put_digits(&mut buf, point, int);
    if v < 0.0 {
        at -= 1;
        if let Some(b) = buf.get_mut(at) {
            *b = b'-';
        }
    }
    match buf.get(at..).map(std::str::from_utf8) {
        Some(Ok(text)) => {
            out.push_str(text);
            true
        }
        _ => false,
    }
}

/// Writes the digits of `x` to end just before `end`, four and then two
/// at a time, and returns the index of the first.
// hot-path
fn put_digits(buf: &mut [u8; BUF_LEN], end: usize, mut x: u64) -> usize {
    let mut at = end;
    while x >= 10_000 {
        let quad = (x % 10_000) as usize;
        x /= 10_000;
        at -= 4;
        put_pair(buf, at, quad / 100);
        put_pair(buf, at + 2, quad % 100);
    }
    if x >= 100 {
        at -= 2;
        put_pair(buf, at, (x % 100) as usize);
        x /= 100;
    }
    if x >= 10 {
        at -= 2;
        put_pair(buf, at, x as usize);
    } else {
        at -= 1;
        if let Some(b) = buf.get_mut(at) {
            *b = b'0' + x as u8;
        }
    }
    at
}

/// Writes the two digits of `pair` (below 100) at `at`.
// hot-path
fn put_pair(buf: &mut [u8; BUF_LEN], at: usize, pair: usize) {
    if let (Some(dst), Some(src)) = (
        buf.get_mut(at..at + 2),
        DIGIT_PAIRS.get(2 * pair..2 * pair + 2),
    ) {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(v: f64) -> Option<String> {
        let mut out = String::new();
        write_shortest(&mut out, v).then_some(out)
    }

    #[test]
    fn tables_are_powers_pairs_and_grid_exponents() {
        // 2^-10 ≈ 9.8e-4 (clamped to the domain's 1e-3), 2^-1 = 0.5,
        // 2^0 = 1, 2^9 = 512, 2^10 = 1024, 2^51 ≈ 2.3e15.
        for (x, k) in [(-10, 19), (-1, 17), (0, 16), (9, 14), (10, 13), (51, 1)] {
            assert_eq!(
                GRID_EXP[(1023 + x - MIN_BIASED as i64) as usize],
                k,
                "2^{x}"
            );
        }
        assert_eq!(POW10[0], 1);
        assert_eq!(POW10[19], 10_000_000_000_000_000_000);
        assert_eq!(&DIGIT_PAIRS[..6], b"000102");
        assert_eq!(&DIGIT_PAIRS[194..], b"979899");
    }

    #[test]
    fn no_binade_puts_an_interval_boundary_on_the_grid() {
        // A boundary (2m ± 1)·10^k / 2^(s+1) is a grid point only if
        // 2^(s+1) divides 10^k, i.e. k > s.
        for (i, &k) in GRID_EXP.iter().enumerate() {
            let s = 1075 - (MIN_BIASED as usize + i);
            assert!(k <= s, "binade 2^{}: k {k}, s {s}", i as i64 - 10);
        }
    }

    #[test]
    fn matches_display_on_hand_picked_values() {
        for v in [
            17.25,
            0.1,
            0.2,
            0.3,
            0.001,
            0.0015,
            992.0998924793647,
            99.8768710171129,
            123.456,
            -0.012_345,
            4_503_599_627_370_495.5,
            1e15 + 0.5,
            0.999_999_999_999_999_9,
            9.999_999_999_999_998,
            1.000_000_000_000_000_2,
        ] {
            assert_eq!(kernel(v).as_deref(), Some(format!("{v}").as_str()), "{v:e}");
        }
    }

    #[test]
    fn declines_an_exact_tie() {
        // 1 + 2^-17 = 1.00000762939453125: the two 17-digit candidates
        // ...312 and ...313 are equally close and both round back.
        assert_eq!(kernel(1.0 + 2f64.powi(-17)), None);
    }

    #[test]
    fn declines_outside_the_domain() {
        for v in [
            0.0,
            -0.0,
            1.0,
            2.0,
            0.5,
            -0.25,
            -8.0,
            1e16,
            9e15,
            0.000_999,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
        ] {
            assert_eq!(kernel(v), None, "{v:e}");
        }
    }

    /// Every `access`/`miss` value the three respond scenarios emit at
    /// 512 tenants, seed 42 (the generator's open-loop stream).
    fn respond_corpus() -> Vec<f64> {
        use memdos_engine::respond::{respond_scenario, respond_templates, RespondScenario};
        use memdos_sim::fleet::{FleetEventKind, FleetGenerator};
        let templates = respond_templates();
        let mut values = Vec::new();
        for kind in RespondScenario::ALL {
            let mut gen = FleetGenerator::new(respond_scenario(kind, 512, 42), &templates)
                .expect("respond scenarios validate");
            gen.drive(&templates, |item| {
                if let FleetEventKind::Sample { access, miss } = item.kind {
                    values.extend([access, miss]);
                }
            });
        }
        values
    }

    #[test]
    fn the_kernel_writes_nearly_every_respond_value() {
        // A kernel that declined everything would still pass every
        // identity test through the `Display` fallback; this pins the
        // share it writes itself.
        // The kernel declines integers by design (`write_f64` prints
        // them with its digit loop), so only fractions count.
        let values: Vec<f64> = respond_corpus()
            .into_iter()
            .filter(|v| v.fract() != 0.0)
            .collect();
        assert!(
            values.len() > 1_000_000,
            "{} fractional values",
            values.len()
        );
        let mut out = String::new();
        let written = values
            .iter()
            .filter(|&&v| {
                out.clear();
                write_shortest(&mut out, v)
            })
            .count();
        let share = written as f64 / values.len() as f64;
        assert!(
            share >= 0.99,
            "kernel wrote {written} of {} values ({share:.4})",
            values.len()
        );
    }
}
