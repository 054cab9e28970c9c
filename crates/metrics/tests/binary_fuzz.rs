//! Seeded fuzz-style property tests for the resynchronising binary
//! decoder (`metrics::binary::BinDecoder`), mirroring `jsonl_fuzz.rs`.
//!
//! Std-only and fully deterministic: all "arbitrary" input derives from
//! `memdos_stats::rng` seeds, so a failure reproduces from its seed
//! alone. The properties:
//!
//! * decoding arbitrary byte soup never panics, at any chunking;
//! * corrupting arbitrary frame bytes never costs an *intact* frame —
//!   the decoder always resynchronises to the next valid marker;
//! * fusing two frames by deleting a byte span loses at most the frames
//!   the span touched;
//! * the frame stream is independent of how the bytes were chunked;
//! * truncation at any offset yields exactly the fully-delivered frames
//!   plus one trailing skipped span.

use memdos_metrics::binary::{BinDecoder, BinFrame, Encoder, MAGIC};
use memdos_stats::rng::{derive_seed, Rng};

/// Builds a clean binary stream of `n` sample frames (tenants cycling
/// vm-0..vm-4) and returns the bytes *without* the preamble, the access
/// value of each sample in order, and each frame's byte range.
fn clean_stream(rng: &mut Rng, n: u64) -> (Vec<u8>, Vec<f64>, Vec<(usize, usize)>) {
    let mut enc = Encoder::new();
    let mut bytes = Vec::new();
    let mut values = Vec::new();
    let mut ranges = Vec::new();
    for i in 0..n {
        let access = (rng.next_below(1_000_000) + i) as f64;
        let start = bytes.len();
        enc.sample(&format!("vm-{}", i % 5), access, 7.0, &mut bytes)
            .expect("encode");
        ranges.push((start, bytes.len()));
        values.push(access);
    }
    let body = bytes.split_off(MAGIC.len());
    let ranges = ranges
        .iter()
        .map(|&(s, e)| (s.saturating_sub(MAGIC.len()), e - MAGIC.len()))
        .collect();
    (body, values, ranges)
}

/// Feeds `bytes` to a decoder in seeded random chunks and returns every
/// frame.
fn decode_chunked(rng: &mut Rng, bytes: &[u8]) -> Vec<BinFrame> {
    let mut dec = BinDecoder::new();
    let mut frames = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let take = (1 + rng.next_below(37) as usize).min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        dec.push_bytes(chunk, &mut frames);
        rest = tail;
    }
    dec.finish(&mut frames);
    frames
}

/// The access values of every decoded sample frame, in order.
fn sample_values(frames: &[BinFrame]) -> Vec<f64> {
    frames
        .iter()
        .filter_map(|f| match f {
            BinFrame::Sample { access, .. } => Some(*access),
            _ => None,
        })
        .collect()
}

#[test]
fn arbitrary_byte_soup_never_panics() {
    for case in 0..200u64 {
        let mut rng = Rng::new(derive_seed(0xB177, case));
        let len = rng.next_below(2_048) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let frames = decode_chunked(&mut rng, &bytes);
        let mut covered = 0usize;
        for frame in &frames {
            if let BinFrame::Skipped { bytes, reason } = frame {
                assert!(*bytes > 0, "case {case}: empty skip span");
                assert!(!reason.is_empty(), "case {case}: silent skip");
                covered += bytes;
            }
        }
        assert!(covered <= len, "case {case}: skip spans exceed the input");
    }
}

#[test]
fn corruption_never_costs_an_intact_frame() {
    for case in 0..100u64 {
        let mut rng = Rng::new(derive_seed(0xBADB, case));
        let n = 8 + rng.next_below(24);
        let (mut bytes, values, ranges) = clean_stream(&mut rng, n);
        let hits = rng.next_below(13);
        let mut dirty = std::collections::BTreeSet::new();
        for _ in 0..hits {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            let junk = rng.next_below(256) as u8;
            for (i, &(s, e)) in ranges.iter().enumerate() {
                if pos >= s && pos < e {
                    dirty.insert(i);
                }
            }
            if let Some(b) = bytes.get_mut(pos) {
                *b = junk;
            }
        }
        let frames = decode_chunked(&mut rng, &bytes);
        let decoded = sample_values(&frames);
        // Every untouched frame's sample must come back, in order.
        let expected: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !dirty.contains(i))
            .map(|(_, v)| *v)
            .collect();
        let mut cursor = decoded.iter();
        for want in &expected {
            assert!(
                cursor.any(|got| got == want),
                "case {case}: sample {want} from an intact frame was lost \
                 (dirty frames {dirty:?}, decoded {decoded:?})"
            );
        }
    }
}

#[test]
fn fused_frames_lose_only_the_touched_span() {
    for case in 0..100u64 {
        let mut rng = Rng::new(derive_seed(0xF05E, case));
        let n = 8 + rng.next_below(24);
        let (mut bytes, values, ranges) = clean_stream(&mut rng, n);
        // Delete a byte span, fusing the frame it starts in with the
        // frame it ends in (the chaos harness's truncation splice).
        let start = rng.next_below(bytes.len() as u64 - 1) as usize;
        let len = (1 + rng.next_below(40) as usize).min(bytes.len() - start);
        let mut dirty = std::collections::BTreeSet::new();
        for (i, &(s, e)) in ranges.iter().enumerate() {
            if start < e && start + len > s {
                dirty.insert(i);
            }
        }
        bytes.drain(start..start + len);
        let frames = decode_chunked(&mut rng, &bytes);
        let decoded = sample_values(&frames);
        let expected: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !dirty.contains(i))
            .map(|(_, v)| *v)
            .collect();
        let mut cursor = decoded.iter();
        for want in &expected {
            assert!(
                cursor.any(|got| got == want),
                "case {case}: sample {want} outside the deleted span was lost \
                 (span {start}+{len}, dirty {dirty:?}, decoded {decoded:?})"
            );
        }
    }
}

#[test]
fn frames_are_independent_of_chunking() {
    for case in 0..50u64 {
        let mut rng = Rng::new(derive_seed(0xCB0C, case));
        let (mut bytes, _, _) = clean_stream(&mut rng, 16);
        // Sprinkle corruption so the resync paths run too.
        for _ in 0..rng.next_below(20) {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(pos) {
                *b = rng.next_below(256) as u8;
            }
        }
        let mut whole = BinDecoder::new();
        let mut reference = Vec::new();
        whole.push_bytes(&bytes, &mut reference);
        whole.finish(&mut reference);
        let mut one = BinDecoder::new();
        let mut byte_at_a_time = Vec::new();
        for b in &bytes {
            one.push_bytes(std::slice::from_ref(b), &mut byte_at_a_time);
        }
        one.finish(&mut byte_at_a_time);
        assert_eq!(reference, byte_at_a_time, "case {case}: chunking changed the frames");
        let random_chunks = decode_chunked(&mut rng, &bytes);
        assert_eq!(reference, random_chunks, "case {case}: chunking changed the frames");
    }
}

#[test]
fn truncation_yields_delivered_frames_plus_one_span() {
    for case in 0..100u64 {
        let mut rng = Rng::new(derive_seed(0x7B42, case));
        let n = 4 + rng.next_below(20);
        let (bytes, values, ranges) = clean_stream(&mut rng, n);
        let cut = rng.next_below(bytes.len() as u64 + 1) as usize;
        let mut dec = BinDecoder::new();
        let mut frames = Vec::new();
        dec.push_bytes(&bytes[..cut], &mut frames);
        dec.finish(&mut frames);
        let decoded = sample_values(&frames);
        let expected: Vec<f64> = values
            .iter()
            .zip(&ranges)
            .filter(|(_, &(_, e))| e <= cut)
            .map(|(v, _)| *v)
            .collect();
        assert_eq!(decoded, expected, "case {case}: cut at {cut}");
        let on_boundary = cut == 0 || ranges.iter().any(|&(_, e)| e == cut);
        let spans = frames.iter().filter(|f| matches!(f, BinFrame::Skipped { .. })).count();
        if on_boundary {
            assert_eq!(spans, 0, "case {case}: spurious span at a frame boundary");
        } else {
            assert_eq!(spans, 1, "case {case}: mid-frame cut must report one span");
            assert!(
                frames.iter().any(|f| matches!(
                    f,
                    BinFrame::Skipped { reason, .. }
                        if reason.contains("truncated")
                )),
                "case {case}: truncation span missing"
            );
        }
    }
}

#[test]
fn clean_streams_roundtrip_exactly() {
    for case in 0..30u64 {
        let mut rng = Rng::new(derive_seed(0xC1EB, case));
        let n = 1 + rng.next_below(40);
        let (bytes, values, _) = clean_stream(&mut rng, n);
        let frames = decode_chunked(&mut rng, &bytes);
        assert!(
            !frames.iter().any(|f| matches!(f, BinFrame::Skipped { .. })),
            "case {case}: clean stream skipped"
        );
        assert_eq!(sample_values(&frames), values, "case {case}");
        let defines = frames
            .iter()
            .filter(|f| matches!(f, BinFrame::Define { .. }))
            .count();
        assert_eq!(defines, 5.min(n as usize), "case {case}: one define per tenant");
    }
}
