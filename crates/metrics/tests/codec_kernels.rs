//! Equivalence suite for the wire codec kernels.
//!
//! * `binary::checksum` reduces its Fletcher sums once per block rather
//!   than after every byte; it must equal the per-byte textbook form,
//!   which lives only here, on every input.
//! * `jsonl::write_record` renders a protocol record through the same
//!   field writer as `JsonObject::to_line`; the two must agree byte for
//!   byte on hostile tenant names and on every number class the
//!   canonical format distinguishes.
//! * `jsonl::write_f64` writes non-integers with an exact integer
//!   kernel instead of `Display`; it must equal [`reference_f64`], the
//!   canonical number format spelled out with `format!`, on every value
//!   the respond and fleet scenarios emit, on seeded random bit patterns
//!   and in-domain values (each ±1 ulp), and on a list of edges.
//!
//! The corpora are seeded (`memdos_stats::rng`), so a failure reproduces
//! from its case number alone. The `#[ignore]`d tests repeat the checks
//! at a much larger N; run them in release with `--include-ignored`.

use memdos_metrics::binary::{checksum, FRAME_LEN, MAX_NAME_LEN};
use memdos_engine::fleet::{fleet_scenario, fleet_templates};
use memdos_engine::respond::{respond_scenario, respond_templates, RespondScenario};
use memdos_metrics::jsonl::{
    parse_record_borrowed, write_f64, write_record, JsonObject, RawKind,
};
use memdos_sim::fleet::{FleetConfig, FleetEventKind, FleetGenerator, VmTemplate};
use memdos_stats::rng::{derive_seed, Rng};

/// Textbook Fletcher-16: both sums reduced `% 255` after every byte.
fn checksum_per_byte(kind: u8, body: &[u8], payload: &[u8]) -> u16 {
    let mut sum1: u32 = u32::from(kind);
    let mut sum2: u32 = sum1;
    for &b in body.iter().chain(payload) {
        sum1 = (sum1 + u32::from(b)) % 255;
        sum2 = (sum2 + sum1) % 255;
    }
    ((sum2 as u16) << 8) | sum1 as u16
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_below(256) as u8).collect()
}

/// Random frames: any kind byte, a random body, a payload of random
/// length up to `max_payload`.
fn check_random_frames(cases: u64, max_payload: usize) {
    for case in 0..cases {
        let mut rng = Rng::new(derive_seed(0xC4EC, case));
        let kind = rng.next_below(256) as u8;
        let body = random_bytes(&mut rng, FRAME_LEN - 4);
        let len = rng.next_below(max_payload as u64 + 1) as usize;
        let payload = random_bytes(&mut rng, len);
        assert_eq!(
            checksum(kind, &body, &payload),
            checksum_per_byte(kind, &body, &payload),
            "case {case}: kind {kind}, payload {len} bytes"
        );
    }
}

/// Every payload length from 0 to `max_len`, with random bytes and with
/// all-`0xFF` bytes (the sums' worst case), under the largest kind byte.
fn check_every_length(max_len: usize) {
    let mut rng = Rng::new(derive_seed(0xC4EC, u64::MAX));
    let random = random_bytes(&mut rng, max_len);
    let ones = vec![0xFF_u8; max_len];
    let body = random_bytes(&mut rng, FRAME_LEN - 4);
    let ones_body = [0xFF_u8; FRAME_LEN - 4];
    for len in 0..=max_len {
        for (body, payload) in [(&body[..], &random[..len]), (&ones_body[..], &ones[..len])] {
            for kind in [0u8, 2, 0xFF] {
                assert_eq!(
                    checksum(kind, body, payload),
                    checksum_per_byte(kind, body, payload),
                    "kind {kind}, payload {len} bytes"
                );
            }
        }
    }
}

#[test]
fn checksum_matches_per_byte_reference_on_random_frames() {
    check_random_frames(2_000, MAX_NAME_LEN);
}

#[test]
fn checksum_matches_per_byte_reference_at_every_payload_length() {
    check_every_length(MAX_NAME_LEN);
}

#[test]
fn checksum_matches_per_byte_reference_on_empty_input() {
    // No byte at all means no reduction in either form: the kind byte
    // comes back in both halves, even when it is 255.
    for kind in 0..=u8::MAX {
        assert_eq!(checksum(kind, &[], &[]), checksum_per_byte(kind, &[], &[]), "kind {kind}");
    }
}

#[test]
fn checksum_matches_per_byte_reference_across_block_boundaries() {
    // All-0xFF inputs of lengths on both sides of one, two and three
    // reduction blocks (5,802 bytes each), split between body and
    // payload at several points.
    let ones = vec![0xFF_u8; 3 * 5_802 + 2];
    for len in [5_801, 5_802, 5_803, 11_603, 11_604, 11_605, 17_405, 17_406, 17_407] {
        for split in [0, 1, 20, 5_802, len] {
            let split = split.min(len);
            let (body, payload) = ones[..len].split_at(split);
            assert_eq!(
                checksum(0xFF, body, payload),
                checksum_per_byte(0xFF, body, payload),
                "length {len}, split {split}"
            );
        }
    }
}

#[test]
#[ignore = "large-N checksum sweep; run in release with --include-ignored"]
fn checksum_matches_per_byte_reference_large_n() {
    check_random_frames(200_000, MAX_NAME_LEN);
    check_random_frames(2_000, 4 * 5_802);
    check_every_length(3 * 5_802 + 1);
}

/// Tenant names every escape path of the encoder meets: quotes,
/// backslashes, every control class, multibyte text next to each.
const NAMES: [&str; 14] = [
    "vm-0",
    "flat-00453",
    "a\"b",
    "\"",
    "back\\slash\\",
    "tab\there",
    "nl\nx\r",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}",
    "del\u{7f}",
    "tenant-α-β",
    "中\"文",
    "😀\\\u{1}😀",
    "\\u0041",
    "/slash/",
];

/// Numbers on every side of the canonical format's cases: signed zero,
/// non-finite values, subnormals, the `9e15` integer cut-off, and
/// ordinary counter values.
const VALUES: [f64; 24] = [
    0.0,
    -0.0,
    1.0,
    -17.0,
    0.5,
    956.3809789456915,
    99.8768710171129,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    2.225_073_858_507_2e-308,
    8.999_999_999_999_998e15,
    9.0e15,
    9.000_000_000_000_002e15,
    -8.999_999_999_999_998e15,
    -9.0e15,
    9_007_199_254_740_992.0,
    1.0e300,
    -1.0e-300,
    f64::MAX,
    18_446_744_073_709_551_615.0,
];

/// The reference rendering: build the general object, render it.
fn object_line(tenant: &str, kind: RawKind) -> String {
    let mut obj = JsonObject::new();
    obj.push_str("tenant", tenant);
    match kind {
        RawKind::Sample { access, miss } => {
            obj.push_num("access", access).push_num("miss", miss);
        }
        RawKind::Close => {
            obj.push_str("ctl", "close");
        }
    }
    obj.to_line()
}

fn record_line(tenant: &str, kind: RawKind) -> String {
    let mut out = String::new();
    write_record(&mut out, tenant, kind);
    out
}

/// Asserts the encoder matches the reference, and that a record the
/// parser accepts decodes back to the encoded name and values.
fn assert_record_matches(tenant: &str, kind: RawKind) {
    let line = record_line(tenant, kind);
    assert_eq!(line, object_line(tenant, kind), "tenant {tenant:?}, {kind:?}");
    let mut scratch = String::new();
    let parsed = parse_record_borrowed(&line, &mut scratch);
    let finite = match kind {
        RawKind::Sample { access, miss } => access.is_finite() && miss.is_finite(),
        RawKind::Close => true,
    };
    if tenant.is_empty() || !finite {
        assert!(parsed.is_err(), "{line:?} should be rejected");
        return;
    }
    let raw = parsed.unwrap_or_else(|e| panic!("{line:?} rejected: {e}"));
    assert_eq!(raw.tenant, tenant, "{line:?}");
    match (raw.kind, kind) {
        (RawKind::Sample { access: a, miss: m }, RawKind::Sample { access, miss }) => {
            // `-0.0` renders as the integer `0`; every other finite
            // value round-trips bit for bit.
            for (got, want) in [(a, access), (m, miss)] {
                let want = if want == 0.0 { 0.0 } else { want };
                assert_eq!(got.to_bits(), want.to_bits(), "{line:?}");
            }
        }
        (RawKind::Close, RawKind::Close) => {}
        (got, want) => panic!("{line:?}: decoded {got:?}, encoded {want:?}"),
    }
}

#[test]
fn write_record_matches_jsonobject_rendering() {
    for tenant in NAMES {
        assert_record_matches(tenant, RawKind::Close);
        for access in VALUES {
            for miss in VALUES {
                assert_record_matches(tenant, RawKind::Sample { access, miss });
            }
        }
    }
    // An empty name renders too (the parser rejects it).
    assert_record_matches("", RawKind::Sample { access: 1.0, miss: 2.0 });
    assert_eq!(
        record_line("vm-0", RawKind::Sample { access: 1234.0, miss: 56.5 }),
        r#"{"tenant":"vm-0","access":1234,"miss":56.5}"#
    );
    assert_eq!(
        record_line("a\"\u{1f}", RawKind::Close),
        r#"{"tenant":"a\"\u001f","ctl":"close"}"#
    );
}

/// The escaper's output, character by character, as the format defines
/// it: `"`, `\` and `\n`/`\r`/`\t` get their short escapes, every other
/// control below `0x20` becomes lowercase `\u00xx`, everything else is
/// copied.
fn escape_reference(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn string_escaping_matches_the_per_character_reference() {
    let mut names: Vec<String> = NAMES.iter().map(|s| s.to_string()).collect();
    names.push((0u32..0x80).filter_map(char::from_u32).collect());
    for name in &names {
        let want = format!("{{\"tenant\":{},\"ctl\":\"close\"}}", escape_reference(name));
        assert_eq!(record_line(name, RawKind::Close), want, "{name:?}");
    }
}

#[test]
fn write_record_appends_to_the_callers_buffer() {
    let mut out = String::from("prefix|");
    write_record(&mut out, "vm-1", RawKind::Close);
    assert_eq!(out, r#"prefix|{"tenant":"vm-1","ctl":"close"}"#);
}

#[test]
fn write_record_matches_jsonobject_rendering_on_random_bits() {
    let pool: Vec<char> = "ab-_\"\\/\u{0}\u{1}\n\r\t\u{1f}\u{7f}é中😀".chars().collect();
    for case in 0..2_000u64 {
        let mut rng = Rng::new(derive_seed(0x5EC0, case));
        let len = rng.next_below(12) as usize;
        let tenant: String = (0..len)
            .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
            .collect();
        let access = f64::from_bits(rng.next_u64());
        let miss = rng.next_below(1 << 40) as f64 / 64.0;
        assert_record_matches(&tenant, RawKind::Sample { access, miss });
    }
}

/// The canonical number format, spelled out with `format!`: `null` for
/// non-finite values, the integer's digits for integers below `9e15`,
/// and `f64`'s `Display` for everything else.
fn reference_f64(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Asserts `write_f64` equals the reference on `v` and its two
/// neighbouring doubles; returns how many values it checked.
fn assert_f64_matches(out: &mut String, v: f64) -> usize {
    for n in [v, v.next_down(), v.next_up()] {
        out.clear();
        write_f64(out, n);
        assert_eq!(*out, reference_f64(n), "bits {:#018x}", n.to_bits());
    }
    3
}

/// Every `access`/`miss` value a fleet generator emits for `config`.
fn scenario_values(config: FleetConfig, templates: &[VmTemplate]) -> Vec<f64> {
    let mut gen = FleetGenerator::new(config, templates).expect("scenario validates");
    let mut values = Vec::new();
    gen.drive(templates, |item| {
        if let FleetEventKind::Sample { access, miss } = item.kind {
            values.extend([access, miss]);
        }
    });
    values
}

/// The three respond scenarios' values at 512 tenants, seed 42.
fn respond_values() -> Vec<f64> {
    let templates = respond_templates();
    RespondScenario::ALL
        .iter()
        .flat_map(|&kind| scenario_values(respond_scenario(kind, 512, 42), &templates))
        .collect()
}

/// Checks every value exactly (no neighbours: the corpus is the point).
fn check_corpus(values: &[f64]) {
    let mut out = String::new();
    for &v in values {
        out.clear();
        write_f64(&mut out, v);
        assert_eq!(out, reference_f64(v), "bits {:#018x}", v.to_bits());
    }
}

/// Random bit patterns (every magnitude, so mostly the fallback's
/// domain) and random values inside the kernel's domain: a uniform
/// significand at a binary exponent from 2^-10 to 2^52, either sign.
/// Returns the number of values checked.
fn check_random(cases: u64) -> usize {
    let mut out = String::new();
    let mut checked = 0;
    for case in 0..cases {
        let mut rng = Rng::new(derive_seed(0xF64D, case));
        checked += assert_f64_matches(&mut out, f64::from_bits(rng.next_u64()));
        let exp = rng.next_below(63) as i32 - 10;
        let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
        let v = sign * (1.0 + rng.next_f64()) * 2f64.powi(exp);
        checked += assert_f64_matches(&mut out, v);
        // Respond-like counters: uniform in [0, 2000).
        checked += assert_f64_matches(&mut out, rng.next_f64() * 2_000.0);
    }
    checked
}

#[test]
fn write_f64_matches_display_on_respond_values() {
    let values = respond_values();
    assert!(values.len() > 1_000_000, "{} values", values.len());
    check_corpus(&values);
}

#[test]
fn write_f64_matches_display_on_fleet_values() {
    check_corpus(&scenario_values(fleet_scenario(2_000, 42), &fleet_templates()));
}

#[test]
fn write_f64_matches_display_on_random_values() {
    check_random(20_000);
}

#[test]
fn write_f64_matches_display_on_edges() {
    let mut edges = vec![
        0.0,
        1e-3,
        9.0e15,
        8.999_999_999_999_998e15,
        9_007_199_254_740_992.0,
        4_503_599_627_370_496.0,
        4_503_599_627_370_495.5,
        f64::MIN_POSITIVE,
        5e-324,
        2.225_073_858_507_2e-308,
        f64::MAX,
        f64::EPSILON,
        1.0 + 2f64.powi(-17),
        0.1,
        0.2,
        0.3,
        2.0 / 3.0,
        17.25,
        992.099_892_479_364_7,
    ];
    // Every power of ten from 1e-5 to 1e16.
    edges.extend((-5..=16).map(|e| 10f64.powi(e)));
    // Exact power-of-two significands around and inside the domain.
    edges.extend((-20..=60).map(|e| 2f64.powi(e)));
    // Short fractions with few significant bits: ties live here.
    edges.extend((1..=64).map(|i| 1.0 + f64::from(i) * 2f64.powi(-17)));
    let mut out = String::new();
    for v in edges {
        assert_f64_matches(&mut out, v);
        assert_f64_matches(&mut out, -v);
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        out.clear();
        write_f64(&mut out, v);
        assert_eq!(out, "null");
    }
}

#[test]
#[ignore = "large-N number sweep (>= 10 M values); run in release with --include-ignored"]
fn write_f64_matches_display_large_n() {
    let mut checked = check_random(1_200_000);
    let fleet = scenario_values(fleet_scenario(50_000, 42), &fleet_templates());
    check_corpus(&fleet);
    checked += fleet.len();
    assert!(checked >= 10_000_000, "{checked} values");
}
