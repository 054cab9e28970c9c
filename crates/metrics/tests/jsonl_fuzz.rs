//! Seeded fuzz-style property tests for the resynchronising JSONL
//! stream path: [`LineFramer`] framing, then per line a clean
//! [`JsonObject::parse`] or [`resync_line`] recovery, the pieces every
//! JSONL reader is built from, composed here into a test [`Decoder`].
//!
//! Std-only and fully deterministic: all "arbitrary" input derives from
//! `memdos_stats::rng` seeds, so a failure reproduces from its seed
//! alone (no proptest dependency, no shrink files). The properties:
//!
//! * decoding arbitrary byte soup never panics, at any chunking;
//! * corrupting arbitrary in-line bytes never costs an *intact* line —
//!   the decoder always resynchronises to the next valid record;
//! * the frame stream is independent of how the bytes were chunked;
//! * the per-line byte cap bounds buffering without losing the records
//!   that follow an oversized line.

use memdos_metrics::jsonl::{
    resync_line, JsonObject, LineFramer, Piece, Segment, DEFAULT_MAX_LINE,
};
use memdos_stats::rng::{derive_seed, Rng};

/// One decoded frame: a record or a skipped span.
#[derive(Debug, Clone, PartialEq)]
enum Frame {
    Object(JsonObject),
    Skipped { bytes: usize, reason: String },
}

/// A byte-stream decoder: a [`LineFramer`] whose text pieces parse into
/// objects, resynchronising around corrupted spans.
struct Decoder {
    framer: LineFramer,
    frames: Vec<Frame>,
}

impl Decoder {
    fn new() -> Self {
        Decoder::with_max_line(DEFAULT_MAX_LINE)
    }

    fn with_max_line(max_line: usize) -> Self {
        Decoder { framer: LineFramer::new(max_line), frames: Vec::new() }
    }

    fn lines(&self) -> u64 {
        self.framer.lines()
    }

    fn push_bytes(&mut self, chunk: &[u8]) {
        let frames = &mut self.frames;
        self.framer.push(chunk, |piece| decode_piece(piece, frames));
    }

    fn drain(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.frames)
    }

    fn finish(&mut self) -> Vec<Frame> {
        let frames = &mut self.frames;
        self.framer.finish(|piece| decode_piece(piece, frames));
        self.drain()
    }
}

fn decode_piece(piece: Piece<'_>, frames: &mut Vec<Frame>) {
    let text = match piece {
        Piece::Text(text) => text,
        Piece::Skipped { bytes, reason } => {
            frames.push(Frame::Skipped { bytes, reason: reason.to_string() });
            return;
        }
    };
    if let Ok(obj) = JsonObject::parse(text) {
        frames.push(Frame::Object(obj));
        return;
    }
    frames.extend(resync_line(text).into_iter().map(|segment| match segment {
        Segment::Object(span) => {
            Frame::Object(JsonObject::parse(span).expect("a recovered span is one object"))
        }
        Segment::Skipped { bytes, reason } => Frame::Skipped { bytes, reason },
    }));
}

/// Builds a clean JSONL stream of `n` records and returns (bytes, the
/// expected access values in order).
fn clean_stream(rng: &mut Rng, n: u64) -> (Vec<u8>, Vec<f64>) {
    let mut bytes = Vec::new();
    let mut values = Vec::new();
    for i in 0..n {
        let access = (rng.next_below(1_000_000) + i) as f64;
        bytes.extend_from_slice(
            format!(r#"{{"tenant":"vm-{}","access":{access},"miss":7}}"#, i % 5).as_bytes(),
        );
        bytes.push(b'\n');
        values.push(access);
    }
    (bytes, values)
}

/// Feeds `bytes` to a decoder in seeded random chunks and returns every
/// frame.
fn decode_chunked(rng: &mut Rng, bytes: &[u8]) -> Vec<Frame> {
    let mut dec = Decoder::new();
    let mut frames = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let take = (1 + rng.next_below(37) as usize).min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        dec.push_bytes(chunk);
        frames.extend(dec.drain());
        rest = tail;
    }
    frames.extend(dec.finish());
    frames
}

#[test]
fn arbitrary_byte_soup_never_panics() {
    for case in 0..200u64 {
        let mut rng = Rng::new(derive_seed(0xF022, case));
        let len = rng.next_below(2_048) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let frames = decode_chunked(&mut rng, &bytes);
        for frame in &frames {
            match frame {
                Frame::Object(obj) => {
                    // Whatever was recovered must re-serialize as an object.
                    assert!(obj.to_line().starts_with('{'), "case {case}");
                }
                Frame::Skipped { bytes, reason } => {
                    assert!(*bytes > 0, "case {case}: empty skip span");
                    assert!(!reason.is_empty(), "case {case}: silent skip");
                }
            }
        }
    }
}

#[test]
fn corruption_never_costs_an_intact_line() {
    for case in 0..100u64 {
        let mut rng = Rng::new(derive_seed(0xBAD5, case));
        let n = 8 + rng.next_below(24);
        let (mut bytes, values) = clean_stream(&mut rng, n);
        // Overwrite up to 12 in-line bytes (newlines stay, so untouched
        // lines keep their framing), possibly none.
        let hits = rng.next_below(13);
        let mut dirty_lines = std::collections::BTreeSet::new();
        for _ in 0..hits {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if bytes.get(pos).copied() == Some(b'\n') {
                continue;
            }
            let mut junk = rng.next_below(256) as u8;
            if junk == b'\n' {
                junk = b'#';
            }
            let line_no = bytes
                .iter()
                .take(pos)
                .filter(|b| **b == b'\n')
                .count();
            dirty_lines.insert(line_no);
            if let Some(b) = bytes.get_mut(pos) {
                *b = junk;
            }
        }
        let frames = decode_chunked(&mut rng, &bytes);
        let decoded: Vec<f64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Object(obj) => obj.get_f64("access"),
                Frame::Skipped { .. } => None,
            })
            .collect();
        // Every intact line's record must come back, in order: the
        // decoder resynchronised past every corrupted span.
        let expected: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !dirty_lines.contains(i))
            .map(|(_, v)| *v)
            .collect();
        let mut cursor = decoded.iter();
        for want in &expected {
            assert!(
                cursor.any(|got| got == want),
                "case {case}: record {want} from an intact line was lost \
                 (dirty lines {dirty_lines:?}, decoded {decoded:?})"
            );
        }
    }
}

#[test]
fn frames_are_independent_of_chunking() {
    for case in 0..50u64 {
        let mut rng = Rng::new(derive_seed(0xC40C, case));
        let (mut bytes, _) = clean_stream(&mut rng, 16);
        // Sprinkle corruption so the resync paths run too.
        for _ in 0..rng.next_below(20) {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(pos) {
                *b = rng.next_below(256) as u8;
            }
        }
        let mut whole = Decoder::new();
        whole.push_bytes(&bytes);
        let mut reference = whole.drain();
        reference.extend(whole.finish());
        let mut one = Decoder::new();
        for b in &bytes {
            one.push_bytes(std::slice::from_ref(b));
        }
        let mut byte_at_a_time = one.drain();
        byte_at_a_time.extend(one.finish());
        assert_eq!(reference, byte_at_a_time, "case {case}: chunking changed the frames");
        let random_chunks = decode_chunked(&mut rng, &bytes);
        assert_eq!(reference, random_chunks, "case {case}: chunking changed the frames");
    }
}

#[test]
fn oversized_lines_are_bounded_and_do_not_eat_successors() {
    for case in 0..20u64 {
        let mut rng = Rng::new(derive_seed(0x512E, case));
        let cap = 64;
        let mut bytes = Vec::new();
        // A line far beyond the cap, without a single newline.
        let oversized = cap * (2 + rng.next_below(8) as usize);
        for _ in 0..oversized {
            let mut b = rng.next_below(256) as u8;
            if b == b'\n' {
                b = b'x';
            }
            bytes.push(b);
        }
        bytes.push(b'\n');
        bytes.extend_from_slice(br#"{"tenant":"vm-9","access":42,"miss":7}"#);
        bytes.push(b'\n');
        let mut dec = Decoder::with_max_line(cap);
        dec.push_bytes(&bytes);
        let frames = dec.finish();
        assert!(
            frames.iter().any(|f| matches!(
                f,
                Frame::Skipped { reason, .. } if reason.contains("byte cap")
            )),
            "case {case}: oversized line not reported"
        );
        let survivor = frames.iter().any(|f| match f {
            Frame::Object(obj) => obj.get_f64("access") == Some(42.0),
            Frame::Skipped { .. } => false,
        });
        assert!(survivor, "case {case}: record after the oversized line was lost");
    }
}

#[test]
fn clean_streams_roundtrip_exactly() {
    for case in 0..30u64 {
        let mut rng = Rng::new(derive_seed(0xC1EA, case));
        let n = 1 + rng.next_below(40);
        let (bytes, values) = clean_stream(&mut rng, n);
        let frames = decode_chunked(&mut rng, &bytes);
        assert_eq!(frames.len() as u64, n, "case {case}");
        for (frame, want) in frames.iter().zip(&values) {
            match frame {
                Frame::Object(obj) => {
                    assert_eq!(obj.get_f64("access"), Some(*want), "case {case}")
                }
                Frame::Skipped { reason, .. } => {
                    unreachable!("case {case}: clean line skipped: {reason}")
                }
            }
        }
        // And each line text parses identically through the one-shot
        // object parser.
        let text = String::from_utf8(bytes).expect("clean stream is UTF-8");
        for line in text.lines() {
            assert!(JsonObject::parse(line).is_ok(), "case {case}");
        }
    }
}

#[test]
fn decoder_reassembles_split_chunks() {
    let mut dec = Decoder::new();
    dec.push_bytes(b"{\"a\":1}\n{\"b\"");
    let first = dec.drain();
    assert_eq!(first.len(), 1);
    dec.push_bytes(b":2}\n");
    let second = dec.drain();
    assert_eq!(second.len(), 1);
    assert!(matches!(&second[0], Frame::Object(o) if o.get_f64("b") == Some(2.0)));
    assert!(dec.finish().is_empty());
    assert_eq!(dec.lines(), 2);
}

#[test]
fn decoder_finish_flushes_unterminated_line() {
    let mut dec = Decoder::new();
    dec.push_bytes(b"{\"a\":1}");
    assert!(dec.drain().is_empty());
    let frames = dec.finish();
    assert_eq!(frames.len(), 1);
    assert!(matches!(&frames[0], Frame::Object(_)));
}

#[test]
fn decoder_caps_oversized_lines() {
    let mut dec = Decoder::with_max_line(16);
    let long = vec![b'x'; 100];
    dec.push_bytes(&long);
    dec.push_bytes(b"\n{\"a\":1}\n");
    let frames = dec.drain();
    assert_eq!(frames.len(), 2, "{frames:?}");
    assert!(matches!(&frames[0], Frame::Skipped { reason, .. } if reason.contains("cap")));
    assert!(matches!(&frames[1], Frame::Object(_)));
}

#[test]
fn decoder_skips_invalid_utf8_and_resyncs() {
    let mut dec = Decoder::new();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(br#"{"a":1}"#);
    bytes.push(0xFF);
    bytes.extend_from_slice(br#"{"b":2}"#);
    bytes.push(b'\n');
    dec.push_bytes(&bytes);
    let frames = dec.drain();
    let objects = frames
        .iter()
        .filter(|f| matches!(f, Frame::Object(_)))
        .count();
    assert_eq!(objects, 2, "{frames:?}");
    assert!(frames
        .iter()
        .any(|f| matches!(f, Frame::Skipped { reason, .. } if reason.contains("UTF-8"))));
}
