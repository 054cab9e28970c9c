//! Fixed-width little-endian binary record codec — the raw-speed wire
//! format behind the engine's streaming protocol.
//!
//! JSONL (see [`crate::jsonl`]) stays the interop format; this module is
//! the negotiated fast path. A binary stream opens with the 8-byte
//! [`MAGIC`] preamble (its first byte can never begin a JSONL line, so
//! the receiver sniffs the first bytes and falls back to JSONL when they
//! diverge) and then carries a sequence of frames:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | frame marker, always [`MARKER`] (`0xA5`) |
//! | 1      | 1    | kind: `0` sample, `1` close, `2` define |
//! | 2      | 2    | Fletcher-16 checksum (LE) over the kind byte, bytes 4..24, and any payload |
//! | 4      | 4    | tenant wire id (`u32` LE) |
//! | 8      | 8    | sample: access counter (`f64` bits, LE); define: payload length (`u32` LE) in bytes 8..12, bytes 12..16 zero |
//! | 16     | 8    | sample: miss counter (`f64` bits, LE); close/define: zero |
//!
//! Every frame is [`FRAME_LEN`] (24) bytes; a *define* frame is followed
//! by its UTF-8 tenant-name payload (at most [`MAX_NAME_LEN`] bytes).
//! Tenant names travel once: a define frame binds a dense wire id to a
//! name before its first use, and samples/closes carry only the id.
//!
//! The [`BinDecoder`] mirrors [`crate::jsonl::Decoder`]: feed arbitrary
//! chunks with [`BinDecoder::push_bytes`], drain frames, call
//! [`BinDecoder::finish`] at end of stream. It never panics on any input
//! and always resynchronises: on a bad marker, checksum mismatch,
//! oversized name or invalid UTF-8 it scans forward to the next
//! [`MARKER`] byte and reports the contiguous skipped span as one
//! [`BinFrame::Skipped`] carrying the first failure's reason. The caller
//! strips the [`MAGIC`] preamble before feeding bytes (the engine does
//! this during format negotiation); a preamble mid-stream decodes as a
//! skipped span, which is the intended visibility for a mid-stream
//! reconnect.

use std::collections::BTreeMap;

/// Stream preamble announcing the binary format. The first byte (`0xB1`)
/// is not valid UTF-8 start for `{` or whitespace, so no JSONL stream
/// can begin with it — this is what makes sniff-based negotiation safe.
pub const MAGIC: [u8; 8] = [0xB1, b'M', b'D', b'S', b'B', b'1', 0x0D, 0x0A];

/// Fixed frame length in bytes (define frames append a payload).
pub const FRAME_LEN: usize = 24;

/// First byte of every frame; the resync scan hunts for it.
pub const MARKER: u8 = 0xA5;

/// Maximum tenant-name payload length a define frame may carry.
pub const MAX_NAME_LEN: usize = 4096;

/// Exclusive upper bound on tenant wire ids. Consumers reject define
/// frames at or above this so a corrupt id cannot size a table by 4 GiB.
pub const MAX_WIRE_ID: u32 = 1 << 20;

const KIND_SAMPLE: u8 = 0;
const KIND_CLOSE: u8 = 1;
const KIND_DEFINE: u8 = 2;

/// One decoded frame from a [`BinDecoder`]: a record or a skipped span.
#[derive(Debug, Clone, PartialEq)]
pub enum BinFrame {
    /// One counter sample for the tenant bound to `tenant`.
    Sample {
        /// Tenant wire id (bound by an earlier [`BinFrame::Define`]).
        tenant: u32,
        /// Cache-access counter value.
        access: f64,
        /// Cache-miss counter value.
        miss: f64,
    },
    /// End of a tenant's stream.
    Close {
        /// Tenant wire id.
        tenant: u32,
    },
    /// Binds a dense wire id to a tenant name; sent before first use.
    Define {
        /// Tenant wire id being bound.
        tenant: u32,
        /// UTF-8 tenant name.
        name: String,
    },
    /// Bytes the decoder skipped to resynchronise.
    Skipped {
        /// Number of bytes the span covers.
        bytes: usize,
        /// Why the span was skipped (first failure in the span).
        reason: &'static str,
    },
}

/// Fletcher-16 checksum over the kind byte, the frame body, and any
/// payload.
///
/// Cheap enough for the per-sample hot path, and strong enough to catch
/// the bit-flips and truncation splices the chaos harness injects. The
/// kind byte is folded in because it sits outside the body: without it a
/// single bit flip could silently turn a sample into a checksum-valid
/// define and rebind a wire id. The marker needs no coverage — it is a
/// constant the decoder matches directly.
// hot-path
pub fn checksum(kind: u8, body: &[u8], payload: &[u8]) -> u16 {
    let mut sum1: u32 = u32::from(kind);
    let mut sum2: u32 = sum1;
    for &b in body.iter().chain(payload) {
        sum1 = (sum1 + u32::from(b)) % 255;
        sum2 = (sum2 + sum1) % 255;
    }
    ((sum2 as u16) << 8) | sum1 as u16
}

/// Appends the [`MAGIC`] preamble to `out`.
pub fn write_preamble(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
}

fn write_frame(out: &mut Vec<u8>, kind: u8, tenant: u32, hi: u64, lo: u64, payload: &[u8]) {
    let mut frame = [0u8; FRAME_LEN];
    frame[0] = MARKER;
    frame[1] = kind;
    frame[4..8].copy_from_slice(&tenant.to_le_bytes());
    frame[8..16].copy_from_slice(&hi.to_le_bytes());
    frame[16..24].copy_from_slice(&lo.to_le_bytes());
    let c = checksum(kind, &frame[4..], payload);
    frame[2..4].copy_from_slice(&c.to_le_bytes());
    out.extend_from_slice(&frame);
    out.extend_from_slice(payload);
}

/// Appends one sample frame to `out`.
// hot-path
pub fn write_sample(out: &mut Vec<u8>, tenant: u32, access: f64, miss: f64) {
    write_frame(out, KIND_SAMPLE, tenant, access.to_bits(), miss.to_bits(), &[]);
}

/// Appends one close frame to `out`.
pub fn write_close(out: &mut Vec<u8>, tenant: u32) {
    write_frame(out, KIND_CLOSE, tenant, 0, 0, &[]);
}

/// Errors from the encoding surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Tenant name exceeds [`MAX_NAME_LEN`] bytes.
    NameTooLong {
        /// Actual name length in bytes.
        len: usize,
    },
    /// The dictionary is full: [`MAX_WIRE_ID`] distinct tenants seen.
    TooManyTenants,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::NameTooLong { len } => {
                write!(f, "tenant name of {len} bytes exceeds the {MAX_NAME_LEN}-byte cap")
            }
            EncodeError::TooManyTenants => {
                write!(f, "wire-id dictionary is full ({MAX_WIRE_ID} tenants)")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Appends one define frame (header plus UTF-8 name payload) to `out`.
///
/// # Errors
///
/// [`EncodeError::NameTooLong`] when the name exceeds [`MAX_NAME_LEN`].
pub fn write_define(out: &mut Vec<u8>, tenant: u32, name: &str) -> Result<(), EncodeError> {
    if name.len() > MAX_NAME_LEN {
        return Err(EncodeError::NameTooLong { len: name.len() });
    }
    write_frame(out, KIND_DEFINE, tenant, name.len() as u64, 0, name.as_bytes());
    Ok(())
}

/// Stateful by-name encoder: assigns dense wire ids in first-seen order
/// and emits the [`MAGIC`] preamble plus define frames automatically, so
/// converters and tests can translate name-keyed streams without
/// tracking the dictionary themselves.
#[derive(Debug, Default)]
pub struct Encoder {
    ids: BTreeMap<String, u32>,
    next_id: u32,
    preamble_written: bool,
}

impl Encoder {
    /// A fresh encoder with an empty dictionary.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Number of distinct tenants defined so far.
    pub fn tenants(&self) -> usize {
        self.ids.len()
    }

    /// Appends a sample for `name`, preceded by the preamble (first call)
    /// and a define frame (first use of `name`).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] on an oversized name or a full dictionary.
    pub fn sample(
        &mut self,
        name: &str,
        access: f64,
        miss: f64,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let id = self.id_for(name, out)?;
        write_sample(out, id, access, miss);
        Ok(())
    }

    /// Appends a close frame for `name` (defining it first if unseen).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] on an oversized name or a full dictionary.
    pub fn close(&mut self, name: &str, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let id = self.id_for(name, out)?;
        write_close(out, id);
        Ok(())
    }

    fn id_for(&mut self, name: &str, out: &mut Vec<u8>) -> Result<u32, EncodeError> {
        if !self.preamble_written {
            write_preamble(out);
            self.preamble_written = true;
        }
        if let Some(&id) = self.ids.get(name) {
            return Ok(id);
        }
        let id = self.next_id;
        if id >= MAX_WIRE_ID {
            return Err(EncodeError::TooManyTenants);
        }
        write_define(out, id, name)?;
        self.ids.insert(name.to_owned(), id);
        self.next_id += 1;
        Ok(id)
    }
}

/// An in-progress skipped span: bytes accumulated while hunting for the
/// next decodable frame, tagged with the first failure's reason.
#[derive(Debug)]
struct Skip {
    bytes: usize,
    reason: &'static str,
}

/// What [`BinDecoder::try_frame`] decided about the buffer front.
enum Step {
    /// A complete frame of `usize` bytes decoded.
    Frame(BinFrame, usize),
    /// Skip `usize` bytes for the given reason and retry.
    Skip(usize, &'static str),
    /// Not enough bytes buffered yet.
    Need,
}

/// Incremental byte-stream binary decoder with resynchronisation and
/// bounded buffering — the binary twin of [`crate::jsonl::LineFramer`]
/// with resynchronisation.
///
/// Buffering is bounded by construction: every complete frame is at most
/// `FRAME_LEN + MAX_NAME_LEN` bytes, so the decoder holds less than one
/// frame of unconsumed input between calls.
#[derive(Debug, Default)]
pub struct BinDecoder {
    buf: Vec<u8>,
    pos: usize,
    frames: Vec<BinFrame>,
    decoded: u64,
    resynced: u64,
    skip: Option<Skip>,
}

impl BinDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        BinDecoder::default()
    }

    /// Number of content frames (sample/close/define) decoded so far.
    pub fn frames(&self) -> u64 {
        self.decoded
    }

    /// Number of skipped spans emitted so far (each span is one
    /// contiguous run of undecodable bytes).
    pub fn resynced(&self) -> u64 {
        self.resynced
    }

    /// Feeds one chunk of the stream into the decoder.
    // hot-path
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
        self.decode_available(false);
    }

    /// Takes every frame decoded so far.
    pub fn drain(&mut self) -> Vec<BinFrame> {
        std::mem::take(&mut self.frames)
    }

    /// Moves every frame decoded so far into `out` (cleared first), so a
    /// steady-state caller reuses one allocation across reads.
    // hot-path
    pub fn drain_into(&mut self, out: &mut Vec<BinFrame>) {
        out.clear();
        std::mem::swap(out, &mut self.frames);
    }

    /// Flushes trailing bytes (end of stream) as a truncated-frame span
    /// and takes the remaining frames.
    pub fn finish(&mut self) -> Vec<BinFrame> {
        self.decode_available(true);
        self.flush_skip();
        self.drain()
    }

    /// Decodes every complete frame at the buffer front. With `at_eof`
    /// the remainder can never complete, so partial frames become
    /// skipped spans instead of waiting for more bytes.
    // hot-path
    fn decode_available(&mut self, at_eof: bool) {
        loop {
            match self.try_frame(at_eof) {
                Step::Frame(frame, consumed) => {
                    self.flush_skip();
                    self.pos += consumed;
                    self.decoded += 1;
                    self.frames.push(frame);
                }
                Step::Skip(n, reason) => {
                    self.pos += n;
                    match self.skip.as_mut() {
                        Some(s) => s.bytes += n,
                        None => self.skip = Some(Skip { bytes: n, reason }),
                    }
                }
                Step::Need => break,
            }
        }
        // Reclaim consumed front bytes once they dominate the buffer.
        if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Emits the pending skipped span, if any.
    fn flush_skip(&mut self) {
        if let Some(s) = self.skip.take() {
            self.resynced += 1;
            self.frames.push(BinFrame::Skipped { bytes: s.bytes, reason: s.reason });
        }
    }

    /// Attempts to decode one frame at the buffer front.
    // hot-path
    fn try_frame(&self, at_eof: bool) -> Step {
        let rest = match self.buf.get(self.pos..) {
            Some(r) if !r.is_empty() => r,
            _ => return Step::Need,
        };
        if rest[0] != MARKER {
            // Hunt for the next possible frame start; everything before
            // it is part of the current skipped span.
            let n = rest.iter().position(|&b| b == MARKER).unwrap_or(rest.len());
            return Step::Skip(n.max(1), "bad frame marker");
        }
        let Some(header) = rest.get(..FRAME_LEN) else {
            if at_eof {
                return Step::Skip(rest.len(), "truncated frame at end of stream");
            }
            return Step::Need;
        };
        let stored = u16::from_le_bytes([header[2], header[3]]);
        let Some(body) = header.get(4..) else { return Step::Need };
        let Some(tenant) = read_u32(body, 0) else { return Step::Need };
        match header[1] {
            KIND_SAMPLE => {
                if checksum(KIND_SAMPLE, body, &[]) != stored {
                    return Step::Skip(1, "frame checksum mismatch");
                }
                let (Some(access), Some(miss)) = (read_f64(body, 4), read_f64(body, 12)) else {
                    return Step::Need;
                };
                Step::Frame(BinFrame::Sample { tenant, access, miss }, FRAME_LEN)
            }
            KIND_CLOSE => {
                if checksum(KIND_CLOSE, body, &[]) != stored {
                    return Step::Skip(1, "frame checksum mismatch");
                }
                Step::Frame(BinFrame::Close { tenant }, FRAME_LEN)
            }
            KIND_DEFINE => {
                let Some(len) = read_u32(body, 4) else { return Step::Need };
                let name_len = len as usize;
                if name_len > MAX_NAME_LEN {
                    return Step::Skip(1, "oversized tenant name");
                }
                let total = FRAME_LEN + name_len;
                let Some(name_bytes) = rest.get(FRAME_LEN..total) else {
                    if at_eof {
                        return Step::Skip(rest.len(), "truncated frame at end of stream");
                    }
                    return Step::Need;
                };
                if checksum(KIND_DEFINE, body, name_bytes) != stored {
                    return Step::Skip(1, "frame checksum mismatch");
                }
                match String::from_utf8(name_bytes.to_vec()) {
                    Ok(name) => Step::Frame(BinFrame::Define { tenant, name }, total),
                    Err(_) => Step::Skip(1, "invalid UTF-8 in tenant name"),
                }
            }
            _ => Step::Skip(1, "unknown frame kind"),
        }
    }
}

/// Reads a little-endian `u32` at `at`, if in bounds.
// hot-path
fn read_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

/// Reads a little-endian `f64` (bit pattern) at `at`, if in bounds.
// hot-path
fn read_f64(b: &[u8], at: usize) -> Option<f64> {
    Some(f64::from_bits(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_stream() -> (Vec<u8>, Vec<BinFrame>) {
        let mut enc = Encoder::new();
        let mut out = Vec::new();
        enc.sample("vm-a", 1200.0, 34.0, &mut out).unwrap();
        enc.sample("vm-b", 980.5, 12.25, &mut out).unwrap();
        enc.sample("vm-a", 1180.0, 30.0, &mut out).unwrap();
        enc.close("vm-b", &mut out).unwrap();
        let expected = vec![
            BinFrame::Define { tenant: 0, name: "vm-a".to_string() },
            BinFrame::Sample { tenant: 0, access: 1200.0, miss: 34.0 },
            BinFrame::Define { tenant: 1, name: "vm-b".to_string() },
            BinFrame::Sample { tenant: 1, access: 980.5, miss: 12.25 },
            BinFrame::Sample { tenant: 0, access: 1180.0, miss: 30.0 },
            BinFrame::Close { tenant: 1 },
        ];
        (out, expected)
    }

    fn decode_all(bytes: &[u8]) -> Vec<BinFrame> {
        let mut dec = BinDecoder::new();
        dec.push_bytes(bytes);
        let mut frames = dec.drain();
        frames.extend(dec.finish());
        frames
    }

    #[test]
    fn roundtrip_with_dictionary() {
        let (bytes, expected) = encode_stream();
        assert_eq!(&bytes[..MAGIC.len()], &MAGIC);
        let frames = decode_all(&bytes[MAGIC.len()..]);
        assert_eq!(frames, expected);
    }

    #[test]
    fn chunked_decode_is_invariant() {
        let (bytes, expected) = encode_stream();
        let body = &bytes[MAGIC.len()..];
        for chunk in [1usize, 3, 7, 23, 64] {
            let mut dec = BinDecoder::new();
            let mut frames = Vec::new();
            for piece in body.chunks(chunk) {
                dec.push_bytes(piece);
                frames.extend(dec.drain());
            }
            frames.extend(dec.finish());
            assert_eq!(frames, expected, "chunk size {chunk}");
            assert_eq!(dec.frames(), expected.len() as u64);
            assert_eq!(dec.resynced(), 0);
        }
    }

    #[test]
    fn corrupted_checksum_resyncs_to_next_frame() {
        let (mut bytes, expected) = encode_stream();
        // Flip a bit inside the first sample frame's access field.
        let define_len = FRAME_LEN + 4;
        let target = MAGIC.len() + define_len + 9;
        bytes[target] ^= 0x40;
        let frames = decode_all(&bytes[MAGIC.len()..]);
        let skips: Vec<_> = frames
            .iter()
            .filter(|f| matches!(f, BinFrame::Skipped { .. }))
            .collect();
        assert_eq!(skips.len(), 1, "frames: {frames:?}");
        assert!(matches!(
            skips[0],
            BinFrame::Skipped { bytes: FRAME_LEN, reason: "frame checksum mismatch" }
        ));
        // Every frame after the corrupted one survives.
        let good: Vec<_> = frames
            .iter()
            .filter(|f| !matches!(f, BinFrame::Skipped { .. }))
            .cloned()
            .collect();
        assert_eq!(good, [&expected[..1], &expected[2..]].concat());
    }

    #[test]
    fn truncated_tail_reports_span_on_finish() {
        let (bytes, _) = encode_stream();
        let body = &bytes[MAGIC.len()..];
        let cut = body.len() - 10;
        let mut dec = BinDecoder::new();
        dec.push_bytes(&body[..cut]);
        let frames = dec.finish();
        assert!(matches!(
            frames.last(),
            Some(BinFrame::Skipped { bytes: 14, reason: "truncated frame at end of stream" })
        ));
    }

    #[test]
    fn garbage_prefix_becomes_one_span() {
        let (bytes, expected) = encode_stream();
        let mut dirty = vec![0u8; 37];
        dirty.extend_from_slice(&bytes[MAGIC.len()..]);
        let frames = decode_all(&dirty);
        assert_eq!(
            frames.first(),
            Some(&BinFrame::Skipped { bytes: 37, reason: "bad frame marker" })
        );
        assert_eq!(&frames[1..], &expected[..]);
    }

    #[test]
    fn oversized_define_is_rejected() {
        let mut out = Vec::new();
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert_eq!(
            write_define(&mut out, 0, &long),
            Err(EncodeError::NameTooLong { len: MAX_NAME_LEN + 1 })
        );
        assert!(write_define(&mut out, 0, "ok").is_ok());
    }

    #[test]
    fn invalid_name_utf8_skips_frame() {
        let mut out = Vec::new();
        write_define(&mut out, 0, "ab").unwrap();
        // Corrupt the payload and re-stamp the checksum so only UTF-8
        // validity fails.
        let n = out.len();
        out[n - 1] = 0xFF;
        let c = checksum(out[1], &out[4..FRAME_LEN], &out[FRAME_LEN..]);
        out[2..4].copy_from_slice(&c.to_le_bytes());
        let frames = decode_all(&out);
        assert!(frames
            .iter()
            .any(|f| matches!(f, BinFrame::Skipped { reason: "invalid UTF-8 in tenant name", .. })));
        assert!(!frames.iter().any(|f| matches!(f, BinFrame::Define { .. })));
    }

    #[test]
    fn kind_byte_flip_fails_the_checksum() {
        // The kind byte sits outside the body, so it must be folded into
        // the checksum: a sample reinterpreted as a define (name_len 0
        // for integral access values) would otherwise verify and rebind
        // a wire id.
        let mut out = Vec::new();
        write_sample(&mut out, 3, 1000.0, 100.0);
        for kind in [KIND_CLOSE, KIND_DEFINE, 0x42] {
            let mut bytes = out.clone();
            bytes[1] = kind;
            let frames = decode_all(&bytes);
            assert!(
                frames.iter().all(|f| matches!(f, BinFrame::Skipped { .. })),
                "kind {kind}: {frames:?}"
            );
        }
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let (bytes, expected) = encode_stream();
        let mut dec = BinDecoder::new();
        let mut scratch = vec![BinFrame::Close { tenant: 99 }];
        dec.push_bytes(&bytes[MAGIC.len()..]);
        dec.drain_into(&mut scratch);
        assert_eq!(scratch, expected);
    }

    #[test]
    fn dictionary_is_stable_across_interleaving() {
        let mut enc = Encoder::new();
        let mut out = Vec::new();
        for round in 0..3 {
            for name in ["t0", "t1", "t2"] {
                enc.sample(name, round as f64, 0.0, &mut out).unwrap();
            }
        }
        assert_eq!(enc.tenants(), 3);
        let frames = decode_all(&out[MAGIC.len()..]);
        let defines = frames
            .iter()
            .filter(|f| matches!(f, BinFrame::Define { .. }))
            .count();
        assert_eq!(defines, 3, "each tenant defined exactly once");
    }
}
