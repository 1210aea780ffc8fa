//! Journal record payloads: the serving-tier requests worth replaying after
//! a crash (`Score`, `Transform`, `Push`) and the slow-trace diagnostic,
//! with a compact binary body encoding.
//!
//! Feature vectors are stored as raw IEEE-754 bit patterns (not decimal
//! text), so a replayed `Score` reproduces the exact `f64`s the live server
//! saw — including NaN payloads — and cache re-warming stays bit-exact.
//! Bundle text is inlined verbatim in `Push`, so recovery never needs a
//! file. Kind 3 is read-only: journals once held path-based installs under
//! it, with a body laid out exactly like `Push`'s, and they still replay —
//! as `Push` records. Nothing writes kind 3 any more.

/// One journaled request, decoded.
#[derive(Debug, Clone)]
pub enum Record {
    /// An accepted `SCORE` request: model name and the raw feature vector.
    Score {
        /// Registry name the request addressed.
        model: String,
        /// Feature vector exactly as scored.
        features: Vec<f64>,
    },
    /// An accepted `TRANSFORM` request.
    Transform {
        /// Registry name the request addressed.
        model: String,
        /// Feature vector exactly as transformed.
        features: Vec<f64>,
    },
    /// A successful `PUSH`: bundle text exactly as received on the wire.
    Push {
        /// Registry name the bundle was installed under.
        model: String,
        /// Canonical bundle text.
        bundle_text: String,
    },
    /// A slow-request diagnostic: the span breakdown of a traced request
    /// that breached the configured latency threshold, riding the same
    /// durable stream as the requests themselves. Replay skips these —
    /// they carry no state to rebuild.
    SlowTrace {
        /// The trace id of the slow request.
        trace_id: u64,
        /// End-to-end latency of the request in nanoseconds.
        total_ns: u64,
        /// The rendered span breakdown (`SpanRecord::render` text).
        text: String,
    },
}

/// A [`Record`] over borrowed parts: what the write path encodes from, so
/// a caller that already holds the model name and the feature vector (the
/// serving tier, per request) journals them without cloning either. The
/// bytes are [`Record`]'s — there is one encoder, and it is this type's.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field for field the variants of `Record`
pub enum RecordRef<'a> {
    Score {
        model: &'a str,
        features: &'a [f64],
    },
    Transform {
        model: &'a str,
        features: &'a [f64],
    },
    Push {
        model: &'a str,
        bundle_text: &'a str,
    },
    SlowTrace {
        trace_id: u64,
        total_ns: u64,
        text: &'a str,
    },
}

impl<'a> RecordRef<'a> {
    /// The one-byte kind tag written into the frame header.
    pub fn kind(&self) -> u8 {
        match self {
            RecordRef::Score { .. } => KIND_SCORE,
            RecordRef::Transform { .. } => KIND_TRANSFORM,
            RecordRef::Push { .. } => KIND_PUSH,
            RecordRef::SlowTrace { .. } => KIND_SLOW_TRACE,
        }
    }

    /// The model name this record addresses (empty for diagnostics like
    /// [`Record::SlowTrace`], which address no model).
    pub fn model(&self) -> &'a str {
        match self {
            RecordRef::Score { model, .. }
            | RecordRef::Transform { model, .. }
            | RecordRef::Push { model, .. } => model,
            RecordRef::SlowTrace { .. } => "",
        }
    }

    /// Exactly how many bytes [`RecordRef::encode_body`] appends, so the
    /// body buffer is allocated once at its final size.
    pub fn body_len(&self) -> usize {
        2 + self.model().len()
            + match self {
                RecordRef::Score { features, .. } | RecordRef::Transform { features, .. } => {
                    4 + 8 * features.len()
                }
                RecordRef::Push { bundle_text, .. } => 4 + bundle_text.len(),
                RecordRef::SlowTrace { text, .. } => 8 + 8 + 4 + text.len(),
            }
    }

    /// Serializes the frame body (everything between the header and the
    /// checksum) into `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        let model = self.model().as_bytes();
        out.extend_from_slice(&(model.len() as u16).to_le_bytes());
        out.extend_from_slice(model);
        match self {
            RecordRef::Score { features, .. } | RecordRef::Transform { features, .. } => {
                out.extend_from_slice(&(features.len() as u32).to_le_bytes());
                for value in *features {
                    out.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
            RecordRef::Push { bundle_text, .. } => {
                out.extend_from_slice(&(bundle_text.len() as u32).to_le_bytes());
                out.extend_from_slice(bundle_text.as_bytes());
            }
            RecordRef::SlowTrace {
                trace_id,
                total_ns,
                text,
            } => {
                out.extend_from_slice(&trace_id.to_le_bytes());
                out.extend_from_slice(&total_ns.to_le_bytes());
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
}

/// Frame kind tags (one byte on disk).
const KIND_SCORE: u8 = 1;
const KIND_TRANSFORM: u8 = 2;
/// Read-only: the path-based `LOAD` install journals once wrote, decoded
/// as [`Record::Push`] (same body layout) and never encoded.
const KIND_LOAD: u8 = 3;
const KIND_PUSH: u8 = 4;
const KIND_SLOW_TRACE: u8 = 5;

impl Record {
    /// The one-byte kind tag written into the frame header.
    pub fn kind(&self) -> u8 {
        self.as_ref().kind()
    }

    /// The model name this record addresses (empty for diagnostics like
    /// [`Record::SlowTrace`], which address no model).
    pub fn model(&self) -> &str {
        self.as_ref().model()
    }

    /// The borrowed view of this record (see [`RecordRef`]).
    pub fn as_ref(&self) -> RecordRef<'_> {
        match self {
            Record::Score { model, features } => RecordRef::Score { model, features },
            Record::Transform { model, features } => RecordRef::Transform { model, features },
            Record::Push { model, bundle_text } => RecordRef::Push { model, bundle_text },
            Record::SlowTrace {
                trace_id,
                total_ns,
                text,
            } => RecordRef::SlowTrace {
                trace_id: *trace_id,
                total_ns: *total_ns,
                text,
            },
        }
    }

    /// Serializes the frame body (everything between the header and the
    /// checksum) into `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_body(out);
    }

    /// Parses a frame body back into a [`Record`]. The checksum has already
    /// been verified by the caller, so a failure here means a writer bug or
    /// deliberate tampering — it is reported as corruption either way.
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<Record, String> {
        let mut cursor = Cursor { body, at: 0 };
        let model_len = cursor.u16()? as usize;
        let model = String::from_utf8(cursor.take(model_len)?.to_vec())
            .map_err(|_| "model name is not utf-8".to_string())?;
        let record = match kind {
            KIND_SCORE | KIND_TRANSFORM => {
                let n = cursor.u32()? as usize;
                let mut features = Vec::with_capacity(n);
                for _ in 0..n {
                    features.push(f64::from_bits(cursor.u64()?));
                }
                if kind == KIND_SCORE {
                    Record::Score { model, features }
                } else {
                    Record::Transform { model, features }
                }
            }
            KIND_PUSH | KIND_LOAD => {
                let len = cursor.u32()? as usize;
                let bundle_text = String::from_utf8(cursor.take(len)?.to_vec())
                    .map_err(|_| "bundle text is not utf-8".to_string())?;
                Record::Push { model, bundle_text }
            }
            KIND_SLOW_TRACE => {
                let trace_id = cursor.u64()?;
                let total_ns = cursor.u64()?;
                let len = cursor.u32()? as usize;
                let text = String::from_utf8(cursor.take(len)?.to_vec())
                    .map_err(|_| "trace text is not utf-8".to_string())?;
                Record::SlowTrace {
                    trace_id,
                    total_ns,
                    text,
                }
            }
            other => return Err(format!("unknown record kind {other}")),
        };
        if cursor.at != body.len() {
            return Err(format!(
                "{} trailing bytes after record body",
                body.len() - cursor.at
            ));
        }
        Ok(record)
    }

    /// Bitwise equality: feature vectors compare by IEEE-754 bit pattern
    /// (`NaN == NaN` here), which is the round-trip contract the journal
    /// guarantees and what property tests assert.
    pub fn bitwise_eq(&self, other: &Record) -> bool {
        let features_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (
                Record::Score {
                    model: m1,
                    features: f1,
                },
                Record::Score {
                    model: m2,
                    features: f2,
                },
            )
            | (
                Record::Transform {
                    model: m1,
                    features: f1,
                },
                Record::Transform {
                    model: m2,
                    features: f2,
                },
            ) => m1 == m2 && features_eq(f1, f2),
            (
                Record::Push {
                    model: m1,
                    bundle_text: t1,
                },
                Record::Push {
                    model: m2,
                    bundle_text: t2,
                },
            ) => m1 == m2 && t1 == t2,
            (
                Record::SlowTrace {
                    trace_id: i1,
                    total_ns: n1,
                    text: t1,
                },
                Record::SlowTrace {
                    trace_id: i2,
                    total_ns: n2,
                    text: t2,
                },
            ) => i1 == i2 && n1 == n2 && t1 == t2,
            _ => false,
        }
    }
}

/// Minimal little-endian reader over a frame body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or_else(|| "record body truncated".to_string())?;
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &Record) -> Record {
        let mut body = Vec::new();
        record.encode_body(&mut body);
        assert_eq!(body.len(), record.as_ref().body_len(), "{record:?}");
        Record::decode_body(record.kind(), &body).expect("decodes")
    }

    #[test]
    fn score_roundtrips_bit_exactly_including_nan() {
        let record = Record::Score {
            model: "admissions".into(),
            features: vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-308],
        };
        assert!(record.bitwise_eq(&roundtrip(&record)));
    }

    #[test]
    fn transform_and_push_roundtrip() {
        let t = Record::Transform {
            model: "m".into(),
            features: vec![],
        };
        assert!(t.bitwise_eq(&roundtrip(&t)));
        let p = Record::Push {
            model: "m".into(),
            bundle_text: "pfr-bundle v1\nweights 1 2 3\n".into(),
        };
        assert!(p.bitwise_eq(&roundtrip(&p)));
        // Kind 3 (read-only) has `Push`'s body, and decodes as a `Push`.
        let mut body = Vec::new();
        p.encode_body(&mut body);
        assert!(Record::decode_body(3, &body).unwrap().bitwise_eq(&p));
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        let score = Record::Score {
            model: "m".into(),
            features: vec![],
        };
        assert_eq!(score.kind(), 1);
        let empty = Record::Push {
            model: "m".into(),
            bundle_text: String::new(),
        };
        assert_eq!(empty.kind(), 4);
    }

    #[test]
    fn slow_trace_roundtrips() {
        let record = Record::SlowTrace {
            trace_id: 0xdead_beef_cafe_f00d,
            total_ns: 12_345_678,
            text: "span serve/SCORE trace=deadbeefcafef00d total_ns=12345678\n  @ resolve 100\n"
                .into(),
        };
        assert_eq!(record.kind(), 5);
        assert_eq!(record.model(), "");
        assert!(record.bitwise_eq(&roundtrip(&record)));
    }

    #[test]
    fn decode_rejects_unknown_kind_and_truncation() {
        let mut body = Vec::new();
        Record::Score {
            model: "m".into(),
            features: vec![1.0],
        }
        .encode_body(&mut body);
        assert!(Record::decode_body(99, &body).is_err());
        assert!(Record::decode_body(1, &body[..body.len() - 1]).is_err());
        let mut padded = body.clone();
        padded.push(0);
        assert!(Record::decode_body(1, &padded).is_err());
    }

    #[test]
    fn different_kinds_never_compare_equal() {
        let s = Record::Score {
            model: "m".into(),
            features: vec![1.0],
        };
        let t = Record::Transform {
            model: "m".into(),
            features: vec![1.0],
        };
        assert!(!s.bitwise_eq(&t));
    }
}
