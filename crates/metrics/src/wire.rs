//! The one wire reader. Every consumer of a record stream — the
//! engine's `ingest_reader` and `ingest_line`, and [`convert`] —
//! decodes it here, so both wire formats are negotiated, framed,
//! resynchronised and bound to tenant names in one place.
//!
//! A [`Reader`] takes arbitrary byte chunks and hands each record, and
//! each span that decodes to no record, to a [`Sink`], in stream order:
//!
//! * **Negotiation.** A stream opening with [`binary::MAGIC`] is binary;
//!   divergence at any byte, or a stream shorter than the preamble,
//!   settles on JSONL with the sniffed bytes replayed.
//! * **JSONL.** [`LineFramer`] splits lines and each decodes through
//!   [`decode_line`]: [`jsonl::parse_record_borrowed`], falling back on
//!   a reject to [`jsonl::resync_line`], whose recovered spans decode
//!   through the same record parser.
//! * **Binary.** [`BinDecoder`] scans the frames. Define frames bind wire
//!   ids to names in the reader's table, which rejects ids at or above
//!   [`binary::MAX_WIRE_ID`] and empty names (JSONL rejects those too);
//!   sample and close frames resolve their id through it.
//!
//! The same bytes yield the same records and malformed spans whichever
//! consumer reads them: a converter's skip count equals the engine's
//! `malformed` count by construction.

use crate::binary::{self, BinDecoder, BinFrame, EncodeError, Encoder};
use crate::jsonl::{self, LineFramer, Piece, RawKind, Segment};
use std::borrow::Cow;
use std::io::{BufRead, Write};

/// The two wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One flat JSON object per line ([`crate::jsonl`]).
    Jsonl,
    /// Preamble, then fixed-width frames ([`crate::binary`]).
    Binary,
}

/// One protocol record as the reader decoded it.
#[derive(Debug)]
pub struct Record<'a> {
    /// The tenant name: a span of the input line, the decode buffer, or
    /// the name a define frame bound.
    pub tenant: &'a str,
    /// Sample payload or control verb.
    pub kind: RawKind,
    /// Recovered by resynchronisation from a rejected JSONL line.
    pub recovered: bool,
    /// A cache slot for the consumer's handle on `tenant` (the engine's
    /// interned id). On the binary wire it lives with the wire-id
    /// binding, so it stays warm and a define that rebinds the id clears
    /// it; a JSONL record's slot is fresh. One consumer per reader.
    pub memo: &'a mut Option<u32>,
}

/// What a [`Reader`] hands its records and malformed spans to.
pub trait Sink {
    /// Takes one decoded record.
    fn record(&mut self, record: Record<'_>);

    /// Takes one span that decoded to no record: why (the `malformed`
    /// event's reason), and the bytes skipped when the span is a byte
    /// run rather than a whole object or frame that failed validation.
    fn malformed(&mut self, reason: Cow<'static, str>, bytes: Option<usize>);

    /// Ends one input span — a framed JSONL piece or a binary frame —
    /// whose records and malformed spans all came before it, so a
    /// consumer that batches its work never splits a line.
    fn end_span(&mut self) {}
}

/// Decodes one JSONL line into `sink`: its record or, when the record
/// parser rejects the line, every record [`jsonl::resync_line`]
/// recovers and every span it skips, in line order. `scratch` is the
/// caller's decode buffer for escaped strings.
// hot-path
pub fn decode_line(line: &str, scratch: &mut String, sink: &mut impl Sink) {
    if let Ok(raw) = jsonl::parse_record_borrowed(line, scratch) {
        let (tenant, kind, memo) = (raw.tenant, raw.kind, &mut None);
        return sink.record(Record { tenant, kind, recovered: false, memo });
    }
    // lint:allow(hot-propagate) -- resync recovers from corrupt input; the fault path may allocate
    for segment in jsonl::resync_line(line) {
        match segment {
            Segment::Object(span) => match jsonl::parse_record_borrowed(span, scratch) {
                Ok(raw) => {
                    let (tenant, kind, memo) = (raw.tenant, raw.kind, &mut None);
                    sink.record(Record { tenant, kind, recovered: true, memo });
                }
                Err(e) => sink.malformed(e.reason().into(), None),
            },
            Segment::Skipped { bytes, reason } => sink.malformed(reason.into(), Some(bytes)),
        }
    }
}

/// Decodes one framed JSONL piece and ends its span.
fn decode_piece(piece: Piece<'_>, scratch: &mut String, sink: &mut impl Sink) {
    match piece {
        Piece::Text(line) => decode_line(line, scratch, sink),
        Piece::Skipped { bytes, reason } => sink.malformed(reason.to_string().into(), Some(bytes)),
    }
    sink.end_span();
}

/// A define frame's binding, with the consumer's [`Record::memo`].
#[derive(Debug)]
struct Binding {
    name: String,
    memo: Option<u32>,
}

/// Applies one binary frame. A define binds its id and yields nothing
/// (so records keep the arrival indices of their JSONL twins) unless it
/// is invalid; a sample or close resolves its id to the bound name.
// hot-path
fn decode_frame(bindings: &mut Vec<Option<Binding>>, frame: BinFrame, sink: &mut impl Sink) {
    let (tenant, kind) = match frame {
        BinFrame::Sample { tenant, access, miss } => (tenant, RawKind::Sample { access, miss }),
        BinFrame::Close { tenant } => (tenant, RawKind::Close),
        BinFrame::Define { tenant, .. } if tenant >= binary::MAX_WIRE_ID => {
            sink.malformed("wire id out of range".into(), None);
            return sink.end_span();
        }
        BinFrame::Define { name, .. } if name.is_empty() => {
            sink.malformed("empty tenant name".into(), None);
            return sink.end_span();
        }
        BinFrame::Define { tenant, name } => {
            let slot = tenant as usize;
            if bindings.len() <= slot {
                bindings.resize_with(slot + 1, || None);
            }
            if let Some(binding) = bindings.get_mut(slot) {
                *binding = Some(Binding { name, memo: None });
            }
            return;
        }
        BinFrame::Skipped { bytes, reason } => {
            sink.malformed(reason.into(), Some(bytes));
            return sink.end_span();
        }
    };
    match bindings.get_mut(tenant as usize).and_then(Option::as_mut) {
        Some(Binding { name, memo }) => {
            sink.record(Record { tenant: name, kind, recovered: false, memo });
        }
        None => sink.malformed("undefined wire id".into(), None),
    }
    sink.end_span();
}

/// Where a [`Reader`] is in the stream.
#[derive(Debug, Default)]
enum State {
    /// Negotiating: every byte so far matched [`binary::MAGIC`].
    #[default]
    Sniff,
    Jsonl(LineFramer),
    /// The frame decoder, the wire-id table, and the frames of the chunk
    /// being decoded: a chunk is scanned to its end before its frames
    /// are dispatched, since routing each frame from inside the scan
    /// loop measured ~20 % slower on pipebench's `fleet-steady-bin`.
    Binary { decoder: BinDecoder, bindings: Vec<Option<Binding>>, frames: Vec<BinFrame> },
}

/// The streaming wire reader (see the module docs). What it yields
/// never depends on how the stream was chunked.
#[derive(Debug, Default)]
pub struct Reader {
    state: State,
    sniffed: Vec<u8>,
    /// Decode buffer for escaped JSONL strings, kept from line to line.
    scratch: String,
}

impl Reader {
    /// The negotiated format; `None` until the first bytes settle it.
    pub fn format(&self) -> Option<Format> {
        match self.state {
            State::Sniff => None,
            State::Jsonl(_) => Some(Format::Jsonl),
            State::Binary { .. } => Some(Format::Binary),
        }
    }

    /// Decodes one chunk of the stream into `sink`.
    pub fn push(&mut self, chunk: &[u8], sink: &mut impl Sink) {
        let rest = self.negotiate(chunk, sink);
        let scratch = &mut self.scratch;
        match &mut self.state {
            State::Sniff => {}
            State::Jsonl(framer) => framer.push(rest, |piece| decode_piece(piece, scratch, sink)),
            State::Binary { decoder, bindings, frames } => {
                decoder.push_bytes(rest, frames);
                frames.drain(..).for_each(|frame| decode_frame(bindings, frame, sink));
            }
        }
    }

    /// Decodes the end of the stream (a trailing unterminated line or a
    /// truncated frame) into `sink`, and returns how many input spans
    /// the stream held: physical lines for JSONL, decoded frames
    /// (defines included) for binary. A stream too short to settle its
    /// format is JSONL.
    pub fn finish(&mut self, sink: &mut impl Sink) -> u64 {
        if let State::Sniff = self.state {
            self.settle_jsonl(sink);
        }
        let scratch = &mut self.scratch;
        match &mut self.state {
            State::Sniff => 0,
            State::Jsonl(framer) => {
                framer.finish(|piece| decode_piece(piece, scratch, sink));
                framer.lines()
            }
            State::Binary { decoder, bindings, frames } => {
                decoder.finish(frames);
                frames.drain(..).for_each(|frame| decode_frame(bindings, frame, sink));
                decoder.frames()
            }
        }
    }

    /// Feeds `chunk` to the format sniff while it is open and returns
    /// the part the negotiated decoder has not seen.
    fn negotiate<'c>(&mut self, chunk: &'c [u8], sink: &mut impl Sink) -> &'c [u8] {
        if !matches!(self.state, State::Sniff) {
            return chunk;
        }
        let take = binary::MAGIC.len().saturating_sub(self.sniffed.len()).min(chunk.len());
        let (head, rest) = chunk.split_at(take);
        self.sniffed.extend_from_slice(head);
        if self.sniffed == binary::MAGIC {
            let (decoder, bindings, frames) = (BinDecoder::new(), Vec::new(), Vec::new());
            self.state = State::Binary { decoder, bindings, frames };
        } else if !binary::MAGIC.starts_with(&self.sniffed) {
            self.settle_jsonl(sink);
        }
        rest
    }

    /// Settles on JSONL, replaying the sniffed bytes.
    fn settle_jsonl(&mut self, sink: &mut impl Sink) {
        let mut framer = LineFramer::new(jsonl::DEFAULT_MAX_LINE);
        let scratch = &mut self.scratch;
        framer.push(&self.sniffed, |piece| decode_piece(piece, scratch, sink));
        self.state = State::Jsonl(framer);
    }
}

/// What one [`convert`] run read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Converted {
    /// Records re-encoded.
    pub records: u64,
    /// Malformed spans skipped: the engine's `malformed` count on the
    /// same input.
    pub skipped: u64,
}

/// The sink behind [`convert`]: re-encodes each record into `out`.
struct Encode {
    to: Format,
    encoder: Encoder,
    line: String,
    out: Vec<u8>,
    totals: Converted,
    /// The first record the encoder refused; the run fails with it.
    failed: Option<EncodeError>,
}

impl Sink for Encode {
    fn record(&mut self, record: Record<'_>) {
        if self.failed.is_some() {
            return;
        }
        let encoded = match (self.to, record.kind) {
            (Format::Binary, RawKind::Sample { access, miss }) => {
                self.encoder.sample(record.tenant, access, miss, &mut self.out)
            }
            (Format::Binary, RawKind::Close) => self.encoder.close(record.tenant, &mut self.out),
            (Format::Jsonl, kind) => {
                self.line.clear();
                jsonl::write_record(&mut self.line, record.tenant, kind);
                self.line.push('\n');
                self.out.extend_from_slice(self.line.as_bytes());
                Ok(())
            }
        };
        match encoded {
            Ok(()) => self.totals.records += 1,
            Err(e) => self.failed = Some(e),
        }
    }

    fn malformed(&mut self, _: Cow<'static, str>, _: Option<usize>) {
        self.totals.skipped += 1;
    }
}

impl Encode {
    /// Fails with the refused record, else writes the output through
    /// once `at` bytes are buffered.
    fn write_through(&mut self, output: &mut impl Write, at: usize) -> std::io::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
        if self.out.len() >= at {
            output.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }
}

/// Re-encodes the record stream on `input` into format `to` on `output`.
/// The input format is negotiated as the engine negotiates it; every
/// record is re-encoded and every malformed span counted, so replaying
/// the output logs the source's records and no `malformed` event.
///
/// # Errors
///
/// I/O errors from either side, and [`std::io::ErrorKind::InvalidData`]
/// carrying the [`EncodeError`] of a record the binary encoder refuses
/// (a name over [`binary::MAX_NAME_LEN`] bytes, or more than
/// [`binary::MAX_WIRE_ID`] tenants).
pub fn convert(
    mut input: impl BufRead,
    mut output: impl Write,
    to: Format,
) -> std::io::Result<Converted> {
    let mut reader = Reader::default();
    let (encoder, line, out) = (Encoder::new(), String::new(), Vec::new());
    let mut sink = Encode { to, encoder, line, out, totals: Converted::default(), failed: None };
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        reader.push(chunk, &mut sink);
        input.consume(len);
        sink.write_through(&mut output, 64 * 1024)?;
    }
    reader.finish(&mut sink);
    sink.write_through(&mut output, 0)?;
    output.flush()?;
    Ok(sink.totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the sink saw, as a comparable value: a record's `(tenant,
    /// kind, recovered, memo)`, a malformed span's `(reason, bytes)`, or
    /// a span end.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Record(String, RawKind, bool, Option<u32>),
        Malformed(String, Option<usize>),
        End,
    }

    /// Logs everything it is handed; fills each record's memo with
    /// `memo_fill` when it is empty.
    #[derive(Default)]
    struct Log {
        seen: Vec<Seen>,
        memo_fill: Option<u32>,
    }

    impl Sink for Log {
        fn record(&mut self, r: Record<'_>) {
            let was = *r.memo;
            if was.is_none() {
                *r.memo = self.memo_fill;
            }
            self.seen.push(Seen::Record(r.tenant.to_string(), r.kind, r.recovered, was));
        }

        fn malformed(&mut self, reason: Cow<'static, str>, bytes: Option<usize>) {
            self.seen.push(Seen::Malformed(reason.into_owned(), bytes));
        }

        fn end_span(&mut self) {
            self.seen.push(Seen::End);
        }
    }

    fn read(bytes: &[u8], chunk: usize) -> (Vec<Seen>, u64, Option<Format>) {
        let mut reader = Reader::default();
        let mut log = Log::default();
        for piece in bytes.chunks(chunk.max(1)) {
            reader.push(piece, &mut log);
        }
        let spans = reader.finish(&mut log);
        (log.seen, spans, reader.format())
    }

    fn sample(tenant: &str, access: f64, recovered: bool) -> Seen {
        Seen::Record(tenant.to_string(), RawKind::Sample { access, miss: 1.0 }, recovered, None)
    }

    #[test]
    fn both_wires_yield_the_same_records_at_any_chunking() {
        let jsonl = concat!(
            r#"{"tenant":"a","access":1,"miss":1}"#,
            "\n",
            r#"{"tenant":"b","access":2,"miss":1}"#,
            "\n"
        )
        .as_bytes();
        let mut binary = Vec::new();
        let mut enc = Encoder::new();
        enc.sample("a", 1.0, 1.0, &mut binary).unwrap();
        enc.sample("b", 2.0, 1.0, &mut binary).unwrap();
        let want = vec![sample("a", 1.0, false), Seen::End, sample("b", 2.0, false), Seen::End];
        for chunk in [1, 3, 7, 64, 4096] {
            assert_eq!(read(jsonl, chunk), (want.clone(), 2, Some(Format::Jsonl)), "{chunk}");
            // 2 defines + 2 samples.
            assert_eq!(read(&binary, chunk), (want.clone(), 4, Some(Format::Binary)), "{chunk}");
        }
    }

    #[test]
    fn a_stream_shorter_than_the_preamble_is_jsonl() {
        assert_eq!(read(b"", 1), (vec![], 0, Some(Format::Jsonl)));
        let prefix = binary::MAGIC.get(..5).unwrap();
        let (seen, spans, format) = read(prefix, 2);
        assert_eq!((spans, format), (1, Some(Format::Jsonl)));
        assert!(matches!(seen.first(), Some(Seen::Malformed(..))), "{seen:?}");
    }

    #[test]
    fn a_rejected_line_yields_its_recovered_records_then_one_span_end() {
        let line = r#"{"tenant":"a","access":1,"miss":1}xyz{"tenant":"a","ctl":"close"}"#;
        let (seen, _, _) = read(line.as_bytes(), 4096);
        assert_eq!(
            seen,
            [
                sample("a", 1.0, true),
                Seen::Malformed("no object found".to_string(), Some(3)),
                Seen::Record("a".to_string(), RawKind::Close, true, None),
                Seen::End,
            ]
        );
    }

    #[test]
    fn the_wire_id_table_rejects_what_jsonl_cannot_name_and_resets_memos() {
        let mut bytes = Vec::new();
        binary::write_preamble(&mut bytes);
        binary::write_define(&mut bytes, binary::MAX_WIRE_ID, "x").unwrap();
        binary::write_define(&mut bytes, 1, "").unwrap();
        binary::write_sample(&mut bytes, 1, 1.0, 1.0);
        binary::write_define(&mut bytes, 0, "a").unwrap();
        binary::write_sample(&mut bytes, 0, 1.0, 1.0);
        binary::write_sample(&mut bytes, 0, 2.0, 1.0);
        binary::write_define(&mut bytes, 0, "b").unwrap();
        binary::write_sample(&mut bytes, 0, 3.0, 1.0);
        let mut reader = Reader::default();
        let mut log = Log { memo_fill: Some(7), ..Log::default() };
        reader.push(&bytes, &mut log);
        reader.finish(&mut log);
        let malformed = |reason: &str| Seen::Malformed(reason.to_string(), None);
        let warm = |tenant: &str, access| {
            Seen::Record(tenant.to_string(), RawKind::Sample { access, miss: 1.0 }, false, Some(7))
        };
        assert_eq!(
            log.seen,
            [
                malformed("wire id out of range"),
                Seen::End,
                malformed("empty tenant name"),
                Seen::End,
                malformed("undefined wire id"),
                Seen::End,
                sample("a", 1.0, false),
                Seen::End,
                warm("a", 2.0),
                Seen::End,
                // The rebinding starts the memo empty again.
                sample("b", 3.0, false),
                Seen::End,
            ]
        );
    }

    #[test]
    fn convert_counts_malformed_spans_and_fails_on_an_unencodable_name() {
        let long = "x".repeat(binary::MAX_NAME_LEN + 1);
        let input = format!(
            "{}\nnot json\n{{\"tenant\":\"{long}\",\"ctl\":\"close\"}}\n",
            r#"{"tenant":"a","access":1,"miss":1}"#
        );
        let mut out = Vec::new();
        let err = convert(input.as_bytes(), &mut out, Format::Binary).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds the 4096-byte cap"), "{err}");
        let totals = convert(input.as_bytes(), &mut out, Format::Jsonl).unwrap();
        assert_eq!(totals, Converted { records: 2, skipped: 1 });
    }
}
