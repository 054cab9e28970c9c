//! The engine's line-delimited JSON wire protocol.
//!
//! Each input line is one flat JSON object (see
//! [`memdos_metrics::jsonl`]) and decodes to one [`Record`]:
//!
//! * a **sample** — `{"tenant":"vm-0","access":1234,"miss":56}` — one
//!   `T_PCM` tick of the tenant's LLC counters, or
//! * a **control** — `{"tenant":"vm-0","ctl":"close"}` — a lifecycle
//!   request.
//!
//! Unknown extra fields are ignored (forward compatibility); missing or
//! mis-typed required fields are an error carrying the reason, so the
//! engine can log and count malformed input without dying.

use memdos_core::detector::Observation;
use memdos_metrics::jsonl::{parse_record_borrowed, write_record, RawKind, RawRecord};

pub use memdos_metrics::jsonl::RecordError;

/// One decoded input line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// One PCM tick of a tenant.
    Sample {
        /// Tenant id (session key).
        tenant: String,
        /// The tick's LLC statistics.
        obs: Observation,
    },
    /// A request to close the tenant's session.
    Close {
        /// Tenant id (session key).
        tenant: String,
    },
}

impl Record {
    /// The tenant the record addresses.
    pub fn tenant(&self) -> &str {
        match self {
            Record::Sample { tenant, .. } | Record::Close { tenant } => tenant,
        }
    }

    /// Decodes one JSONL line through [`parse_record_borrowed`], the
    /// record decoder the engine ingests clean lines and resynchronised
    /// spans with, and takes ownership of the tenant name.
    ///
    /// # Errors
    ///
    /// Returns the [`RecordError`] class — syntax errors, a missing
    /// `tenant`, an unknown `ctl` verb, or missing/non-finite counters.
    /// Render a human-readable reason lazily via
    /// [`RecordError::reason`].
    pub fn parse(line: &str) -> Result<Record, RecordError> {
        let mut scratch = String::new();
        parse_record_borrowed(line, &mut scratch).map(Record::from_raw)
    }

    /// Takes ownership of a borrowed record.
    fn from_raw(raw: RawRecord<'_>) -> Record {
        match raw.kind {
            RawKind::Sample { access, miss } => Record::Sample {
                tenant: raw.tenant.to_string(),
                obs: Observation { access_num: access, miss_num: miss },
            },
            RawKind::Close => Record::Close { tenant: raw.tenant.to_string() },
        }
    }

    /// Encodes the record as one JSONL line (no trailing newline)
    /// through [`write_record`], into one `String` sized for the line.
    pub fn to_line(&self) -> String {
        // `{"tenant":"` … `","access":` … `,"miss":` … `}` is 31 bytes of
        // framing. `write_f64` writes a counter value in at most 22
        // bytes (an integer below 9e15, or a fraction from its kernel: a
        // sign, `0.00` and 17 digits at most), so 80 holds both; only a
        // value outside the kernel's domain (below 1e-3 or from 2^52),
        // which `Display` writes without an exponent, grows the buffer.
        let mut out = String::with_capacity(self.tenant().len() + 80);
        let kind = match self {
            Record::Sample { obs, .. } => {
                RawKind::Sample { access: obs.access_num, miss: obs.miss_num }
            }
            Record::Close { .. } => RawKind::Close,
        };
        write_record(&mut out, self.tenant(), kind);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdos_metrics::jsonl::JsonObject;

    #[test]
    fn sample_roundtrips() {
        let r = Record::Sample {
            tenant: "vm-0".to_string(),
            obs: Observation { access_num: 1234.0, miss_num: 56.5 },
        };
        let line = r.to_line();
        assert_eq!(Record::parse(&line).unwrap(), r);
    }

    #[test]
    fn close_roundtrips() {
        let r = Record::Close { tenant: "vm-1".to_string() };
        assert_eq!(r.to_line(), r#"{"tenant":"vm-1","ctl":"close"}"#);
        assert_eq!(Record::parse(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn to_line_matches_the_object_renderer() {
        let names = ["vm-0", "a\"b\\c", "ctl\u{0}\u{1f}\n\t", "tenant-α-β", "😀\"", "\u{7f}"];
        let values = [
            0.0,
            -0.0,
            956.3809789456915,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            f64::MIN_POSITIVE,
            8.999_999_999_999_998e15,
            9.0e15,
            -9.000_000_000_000_002e15,
        ];
        for name in names {
            let mut obj = JsonObject::new();
            obj.push_str("tenant", name).push_str("ctl", "close");
            assert_eq!(Record::Close { tenant: name.to_string() }.to_line(), obj.to_line());
            for access in values {
                for miss in values {
                    let mut obj = JsonObject::new();
                    obj.push_str("tenant", name).push_num("access", access).push_num("miss", miss);
                    let r = Record::Sample {
                        tenant: name.to_string(),
                        obs: Observation { access_num: access, miss_num: miss },
                    };
                    assert_eq!(r.to_line(), obj.to_line(), "{name:?} {access} {miss}");
                }
            }
        }
    }

    #[test]
    fn extra_fields_are_ignored() {
        let r = Record::parse(r#"{"tenant":"vm-0","access":1,"miss":2,"host":"node-7"}"#)
            .unwrap();
        assert_eq!(r.tenant(), "vm-0");
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(Record::parse("not json").is_err());
        assert!(Record::parse(r#"{"access":1,"miss":2}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"","access":1,"miss":2}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","access":1}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","ctl":"open"}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","ctl":7}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","access":"x","miss":2}"#).is_err());
    }

    #[test]
    fn error_classes_render_lazily() {
        let err = Record::parse(r#"{"tenant":"vm-0","ctl":"open"}"#).unwrap_err();
        assert_eq!(err, RecordError::UnknownCtl);
        assert_eq!(err.reason(), "unknown control verb");
        assert_eq!(err.to_string(), err.reason());
    }
}
