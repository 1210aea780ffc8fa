//! The line-delimited text protocol spoken over TCP.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! PUSH <name> <nbytes>          -> OK loaded <name>@<gen> features=<m> dim=<d>
//!   (the header line is followed by exactly <nbytes> bytes of bundle
//!    text — newlines inside the payload are data, not framing)
//! SCORE <name> v1 v2 ... vm     -> OK <probability> <hard-label>
//! TRANSFORM <name> v1 ... vm    -> OK z1 z2 ... zd
//! STATS                         -> OK name{labels}=value name{labels}=value ...
//!   (the METRICS series without their histogram buckets, on one line)
//! HEALTH                        -> OK up models=<n> swaps=<s> queue=<q>
//! EPOCH <name>                  -> OK <name> generation=<g> digest=<hex>
//! METRICS                       -> OK <escaped Prometheus-style text>
//! TRACE <id>                    -> OK <escaped span-tree text>
//! CATALOG                       -> OK epoch=<e> writer=<w> digest=<hex>
//!                                  (or OK none when no catalog is held)
//! CATALOG FULL                  -> OK <escaped catalog text> (or OK none)
//! SYNC <nbytes>                 -> OK epoch=<e> writer=<w> digest=<hex> applied=<0|1>
//!   (like PUSH, the header is followed by exactly <nbytes> bytes of
//!    catalog text; the server merges it by version order)
//! QUIT                          -> OK bye (server closes the connection)
//! anything else                 -> ERR <message>
//! ```
//!
//! `SCORE`, `TRANSFORM` and `PUSH` accept an optional trailing `T=<16-hex>`
//! trace token ([`pfr_obs::wire`]): the request joins that trace, its span
//! is recorded server-side, and the token is echoed as the trailing token
//! of the response line. Requests without a token get byte-identical
//! responses to the pre-tracing protocol — tracing is strictly additive.
//!
//! `METRICS` and `TRACE` payloads are logically multi-line text but travel
//! escaped onto one line (`pfr_obs::wire::escape_multiline`), keeping the
//! one-response-line-per-request framing every tier pipelines on.
//!
//! `PUSH` is the one way a model is installed over the wire: the client
//! (typically the routing tier placing a replica) ships the serialized
//! [`ModelBundle`](pfr_core::persistence::ModelBundle) text as a counted
//! payload, so the server never reads a path a client names. The bundle is
//! validated in full before it is journaled, and `PUSH` requests are
//! counted under the `load` stats verb.
//!
//! `CATALOG` and `SYNC` make every backend a **replication point for the
//! router tier's placement catalog** (`pfr-control`): a router publishes
//! its catalog with `SYNC` (a counted payload, merged here by the
//! catalog's `(epoch, writer, digest)` total order), polls peers'
//! versions digest-first with `CATALOG`, and fetches the full text with
//! `CATALOG FULL` only when the summary differs. Backends never interpret
//! the roster or placements — they store, order and serve the value, so a
//! restarted router can bootstrap its whole control-plane state from any
//! backend it can reach.
//!
//! `HEALTH` and `EPOCH` exist for the routing tier (`pfr-router`): `HEALTH`
//! is the liveness probe its circuit breakers feed on (`queue=` is the
//! number of requests currently in flight, a cheap load signal), and
//! `EPOCH`'s digest lets the router verify that every replica of a shard
//! serves bit-identical model content before treating their scores as
//! interchangeable — process-local generation counters cannot be compared
//! across backends.
//!
//! Numbers are rendered with Rust's shortest-round-trip `{}` formatting, so
//! an `f64` survives the text protocol bit-exactly — the end-to-end tests
//! rely on scores being *bitwise* equal to offline inference.
//!
//! **One writer, one parser.** Every number on the wire is written by
//! [`write_numbers`], straight into a caller-owned `String`:
//! [`write_score_request`] formats a whole `SCORE` frame into the buffer
//! that ships it, [`score_response`] writes `OK <probability> <label>` into
//! the response line, and [`format_numbers`] is the allocating wrapper the
//! other callers use. [`parse_request`] is the one reader: it matches the
//! verb case-insensitively in place and parses features in one pass into a
//! vector sized once, so a `SCORE` parse allocates the model name and the
//! features and nothing else. Non-finite features are refused by position,
//! an `ERR` line quotes at most [`MAX_ECHO`] bytes of whatever token it
//! rejects, and no `ERR` line is longer than [`MAX_ERR_BYTES`].
//! `crates/serve/DESIGN.md` § "Allocation ledger of one routed SCORE" lists
//! what a request still allocates, and why.

use crate::error::ServeError;
use crate::Result;
use std::fmt::Write as _;

/// Prefix of the `ERR` message a server sends when the requested model is
/// not in its registry. This is a **wire contract**: the routing tier
/// distinguishes "this backend is not a replica of that model" (keep
/// walking the ring) from every other `ERR` (deterministic request
/// failure, do not fail over) by exactly this prefix.
pub const MODEL_NOT_FOUND_PREFIX: &str = "no model named";

/// The single line a server writes before closing a connection it **shed**
/// at accept time (connection limit reached). Like
/// [`MODEL_NOT_FOUND_PREFIX`] this is a **wire contract**: the routing tier
/// treats a `BUSY` response as "this replica is overloaded, walk on to the
/// next one" rather than a request failure — shedding degrades capacity,
/// never correctness.
pub const BUSY: &str = "BUSY";

/// Largest accepted `PUSH` payload. Bundle text for realistic models runs
/// kilobytes to low megabytes; the cap keeps a malicious header line from
/// committing the server to buffering gigabytes.
pub const MAX_PUSH_BYTES: usize = 64 << 20;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Install (or hot-swap) a bundle whose text follows the header line as
    /// a counted payload of `nbytes` bytes.
    Push {
        /// Registry name to serve the model under.
        name: String,
        /// Exact payload length announced by the header line.
        nbytes: usize,
        /// Trace id from an optional trailing `T=<hex>` token.
        trace: Option<u64>,
    },
    /// Score one raw attribute vector with the named model.
    Score {
        /// Registry name of the model.
        name: String,
        /// The raw attribute vector.
        features: Vec<f64>,
        /// Trace id from an optional trailing `T=<hex>` token.
        trace: Option<u64>,
    },
    /// Embed one raw attribute vector with the named model.
    Transform {
        /// Registry name of the model.
        name: String,
        /// The raw attribute vector.
        features: Vec<f64>,
        /// Trace id from an optional trailing `T=<hex>` token.
        trace: Option<u64>,
    },
    /// Report serving statistics.
    Stats,
    /// Liveness probe: model count, hot-swap count and in-flight queue depth.
    Health,
    /// Report the named model's generation and content digest.
    Epoch {
        /// Registry name of the model.
        name: String,
    },
    /// Report the full metrics exposition (escaped multi-line payload).
    Metrics,
    /// Report the recorded span tree for a sampled trace id.
    Trace {
        /// The trace id to look up.
        id: u64,
    },
    /// Report the held placement catalog: its version summary, or with
    /// `full` the entire escaped catalog text.
    Catalog {
        /// Whether the full catalog text was requested (`CATALOG FULL`).
        full: bool,
    },
    /// Merge a pushed placement catalog (counted payload of `nbytes`
    /// bytes follows the header line) by version order.
    Sync {
        /// Exact payload length announced by the header line.
        nbytes: usize,
    },
    /// Close the connection.
    Quit,
}

/// The verbs [`parse_request`] knows, in their canonical (upper) case.
/// A request's verb matches one of these case-insensitively.
const VERBS: [&str; 11] = [
    "SCORE",
    "TRANSFORM",
    "PUSH",
    "STATS",
    "HEALTH",
    "EPOCH",
    "METRICS",
    "TRACE",
    "CATALOG",
    "SYNC",
    "QUIT",
];

/// Longest prefix of an offending token, in bytes, that an `ERR` line
/// quotes back. A client's junk is echoed for diagnosis, never in full:
/// a 1 MiB token must not become a 1 MiB error line.
pub const MAX_ECHO: usize = 32;

/// Longest `ERR` line, in bytes, a server sends. Parsers quote payloads as
/// well as tokens — a bundle's first line, a catalog line — so the whole
/// message is capped once, where it is rendered.
pub const MAX_ERR_BYTES: usize = 256;

/// Bytes reserved per number when sizing an encode buffer: the
/// shortest-round-trip text of a typical feature is 18–21 bytes plus its
/// separator, so a vector of such values encodes without regrowing.
const NUMBER_BYTES: usize = 24;

/// Parses one request line.
///
/// Allocates only what the [`Request`] owns: the model name and, for
/// `SCORE`/`TRANSFORM`, the feature vector at its exact length.
/// Non-finite features are rejected by position.
pub fn parse_request(line: &str) -> Result<Request> {
    let line = line.trim_start();
    let (word, args) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    if word.is_empty() {
        return Err(protocol_error("empty request line"));
    }
    let Some(verb) = VERBS.into_iter().find(|v| v.eq_ignore_ascii_case(word)) else {
        return Err(ServeError::Protocol(format!(
            "unknown verb '{}'",
            echo(word).to_ascii_uppercase()
        )));
    };
    match verb {
        "SCORE" | "TRANSFORM" => {
            let (args, trace) = peel_trace(args);
            let (name, features) = parse_vector(verb, args)?;
            let name = name.to_string();
            Ok(if verb == "SCORE" {
                Request::Score {
                    name,
                    features,
                    trace,
                }
            } else {
                Request::Transform {
                    name,
                    features,
                    trace,
                }
            })
        }
        "PUSH" => {
            let (args, trace) = peel_trace(args);
            let [name, nbytes] =
                exactly(args).ok_or_else(|| protocol_error("usage: PUSH <name> <nbytes>"))?;
            Ok(Request::Push {
                name: name.to_string(),
                nbytes: payload_length(nbytes)?,
                trace,
            })
        }
        "STATS" => bare(verb, args, Request::Stats),
        "HEALTH" => bare(verb, args, Request::Health),
        "METRICS" => bare(verb, args, Request::Metrics),
        "QUIT" => bare(verb, args, Request::Quit),
        "EPOCH" => {
            let [name] = exactly(args).ok_or_else(|| protocol_error("usage: EPOCH <name>"))?;
            Ok(Request::Epoch {
                name: name.to_string(),
            })
        }
        "TRACE" => {
            let [hex] = exactly(args).ok_or_else(|| protocol_error("usage: TRACE <hex-id>"))?;
            let id = u64::from_str_radix(hex, 16)
                .ok()
                .filter(|&id| id != 0)
                .ok_or_else(|| {
                    ServeError::Protocol(format!("'{}' is not a trace id", echo(hex)))
                })?;
            Ok(Request::Trace { id })
        }
        "CATALOG" => match args.trim() {
            "" => Ok(Request::Catalog { full: false }),
            arg if arg.eq_ignore_ascii_case("FULL") => Ok(Request::Catalog { full: true }),
            _ => Err(protocol_error("usage: CATALOG [FULL]")),
        },
        "SYNC" => {
            let [nbytes] = exactly(args).ok_or_else(|| protocol_error("usage: SYNC <nbytes>"))?;
            Ok(Request::Sync {
                nbytes: payload_length(nbytes)?,
            })
        }
        _ => unreachable!("every verb in VERBS has an arm"),
    }
}

fn protocol_error(msg: &str) -> ServeError {
    ServeError::Protocol(msg.to_string())
}

/// `token` as an error message quotes it: at most [`MAX_ECHO`] bytes, cut
/// on a character boundary and marked with `…` when cut.
pub(crate) fn echo(token: &str) -> String {
    if token.len() <= MAX_ECHO {
        return token.to_string();
    }
    format!("{}…", prefix(token, MAX_ECHO))
}

/// The longest prefix of `s` that is at most `max` bytes and ends on a
/// character boundary.
fn prefix(s: &str, max: usize) -> &str {
    let mut end = max.min(s.len());
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Splits an optional trailing `T=<hex>` trace token off `args`. The token
/// is framing, not an argument; anything that is not a well-formed token
/// stays an argument (and fails that argument's parse).
fn peel_trace(args: &str) -> (&str, Option<u64>) {
    let args = args.trim_end();
    let (head, last) = args.rsplit_once(char::is_whitespace).unwrap_or(("", args));
    match pfr_obs::parse_trace_token(last) {
        Some(id) => (head, Some(id)),
        None => (args, None),
    }
}

/// The whitespace-separated tokens of a request, exactly as
/// `str::split_whitespace` yields them.
#[derive(Clone)]
enum Words<'a> {
    /// An ASCII line without a vertical tab — every line the encoder
    /// writes — splits byte by byte, about 3× faster than decoding chars.
    /// (`\x0B` is the one ASCII char `char::is_whitespace` accepts and
    /// `u8::is_ascii_whitespace` does not.)
    Ascii(std::str::SplitAsciiWhitespace<'a>),
    Unicode(std::str::SplitWhitespace<'a>),
}

fn words(s: &str) -> Words<'_> {
    if s.is_ascii() && !s.contains('\x0B') {
        Words::Ascii(s.split_ascii_whitespace())
    } else {
        Words::Unicode(s.split_whitespace())
    }
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Words::Ascii(words) => words.next(),
            Words::Unicode(words) => words.next(),
        }
    }
}

/// Exactly `N` whitespace-separated tokens, or `None`.
fn exactly<const N: usize>(args: &str) -> Option<[&str; N]> {
    let mut tokens = words(args);
    let mut out = [""; N];
    for slot in &mut out {
        *slot = tokens.next()?;
    }
    tokens.next().is_none().then_some(out)
}

/// A verb that takes no arguments.
fn bare(verb: &str, args: &str, request: Request) -> Result<Request> {
    match exactly::<0>(args) {
        Some([]) => Ok(request),
        None => Err(ServeError::Protocol(format!("{verb} takes no arguments"))),
    }
}

/// The counted-payload length of a `PUSH`/`SYNC` header.
fn payload_length(token: &str) -> Result<usize> {
    let nbytes = token
        .parse::<usize>()
        .map_err(|_| ServeError::Protocol(format!("'{}' is not a payload length", echo(token))))?;
    if nbytes == 0 || nbytes > MAX_PUSH_BYTES {
        return Err(ServeError::Protocol(format!(
            "payload length {nbytes} is outside 1..={MAX_PUSH_BYTES}"
        )));
    }
    Ok(nbytes)
}

/// Features [`parse_vector`] parses on the stack before moving them to the
/// heap: any realistic feature vector fits in one chunk.
const FEATURE_CHUNK: usize = 256;

/// `<name> v1 ... vm` of a `SCORE`/`TRANSFORM`: the name, and the features
/// parsed in one pass. Up to [`FEATURE_CHUNK`] features, the vector is
/// allocated once at its exact length.
fn parse_vector<'a>(verb: &str, args: &'a str) -> Result<(&'a str, Vec<f64>)> {
    let usage = || ServeError::Protocol(format!("usage: {verb} <name> <v1> ... <vm>"));
    let mut tokens = words(args);
    let name = tokens.next().ok_or_else(usage)?;
    let mut chunk = [0.0; FEATURE_CHUNK];
    let mut filled = 0;
    let mut features = Vec::new();
    for (position, token) in tokens.enumerate() {
        let value = token
            .parse::<f64>()
            .map_err(|_| ServeError::Protocol(format!("'{}' is not a number", echo(token))))?;
        // Rust's parser accepts `NaN` and `inf`; a model scores them to
        // NaN, which would be answered (and journaled) as a decision.
        if !value.is_finite() {
            return Err(ServeError::Protocol(format!(
                "feature {position} is not finite ({value})"
            )));
        }
        if filled == FEATURE_CHUNK {
            features.extend_from_slice(&chunk);
            filled = 0;
        }
        chunk[filled] = value;
        filled += 1;
    }
    if features.is_empty() {
        if filled == 0 {
            return Err(usage());
        }
        return Ok((name, chunk[..filled].to_vec()));
    }
    features.extend_from_slice(&chunk[..filled]);
    Ok((name, features))
}

/// Renders a successful response payload.
pub fn ok_response(payload: &str) -> String {
    if payload.is_empty() {
        "OK".to_string()
    } else {
        let mut out = String::with_capacity(payload.len() + 3);
        out.push_str("OK ");
        out.push_str(payload);
        out
    }
}

/// Renders a `SCORE` response, `OK <probability> <hard-label>`, into one
/// `String` with room left for a trace echo.
pub fn score_response(score: f64, label: bool) -> String {
    let mut out = String::with_capacity(64);
    write!(out, "OK {score} {}", u8::from(label)).expect("writing to a String cannot fail");
    out
}

/// Appends ` T=<id>`: the trailing trace token of a traced request, or
/// its echo on the response line.
pub fn push_trace_token(response: &mut String, id: u64) {
    write!(response, " {}", pfr_obs::TraceToken(id)).expect("writing to a String cannot fail");
}

/// Renders an error response: one line of at most [`MAX_ERR_BYTES`] bytes,
/// cut on a character boundary and marked with `…` when cut.
pub fn err_response(err: &ServeError) -> String {
    let mut out = String::from("ERR ");
    write!(out, "{err}").expect("writing to a String cannot fail");
    if out.len() > MAX_ERR_BYTES {
        let keep = prefix(&out, MAX_ERR_BYTES - '…'.len_utf8()).len();
        out.truncate(keep);
        out.push('…');
    }
    // Keep responses single-line whatever the error contains.
    if out.contains('\n') {
        out = out.replace('\n', " ");
    }
    out
}

/// Writes `values` space-separated with shortest-round-trip formatting —
/// the one number writer of the text protocol, appending to `out`.
pub fn write_numbers(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

/// Renders a vector of numbers with shortest-round-trip formatting.
pub fn format_numbers(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * NUMBER_BYTES);
    write_numbers(&mut out, values);
    out
}

/// Appends one `SCORE` request frame, `SCORE <model> v1 ... vm[ T=<id>]`
/// and its newline, to `out`: the bytes a client ships, formatted once.
/// A buffer with room for the frame takes it without allocating.
pub fn write_score_request(out: &mut String, model: &str, features: &[f64], trace: Option<u64>) {
    out.reserve(model.len() + features.len() * NUMBER_BYTES + 32);
    out.push_str("SCORE ");
    out.push_str(model);
    out.push(' ');
    write_numbers(out, features);
    if let Some(id) = trace {
        push_trace_token(out, id);
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("PUSH risk 4096").unwrap(),
            Request::Push {
                name: "risk".to_string(),
                nbytes: 4096,
                trace: None
            }
        );
        assert_eq!(
            parse_request("SCORE risk 1 -2.5 3e-4").unwrap(),
            Request::Score {
                name: "risk".to_string(),
                features: vec![1.0, -2.5, 3e-4],
                trace: None
            }
        );
        assert_eq!(
            parse_request("TRANSFORM risk 0.5").unwrap(),
            Request::Transform {
                name: "risk".to_string(),
                features: vec![0.5],
                trace: None
            }
        );
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("HEALTH").unwrap(), Request::Health);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("TRACE 00000000000000ff").unwrap(),
            Request::Trace { id: 0xff }
        );
        assert_eq!(
            parse_request("EPOCH risk").unwrap(),
            Request::Epoch {
                name: "risk".to_string()
            }
        );
        assert_eq!(
            parse_request("CATALOG").unwrap(),
            Request::Catalog { full: false }
        );
        assert_eq!(
            parse_request("CATALOG FULL").unwrap(),
            Request::Catalog { full: true }
        );
        assert_eq!(
            parse_request("SYNC 128").unwrap(),
            Request::Sync { nbytes: 128 }
        );
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        // Verbs are case-insensitive, arguments are not.
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("health").unwrap(), Request::Health);
        assert_eq!(
            parse_request("catalog full").unwrap(),
            Request::Catalog { full: true }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "   ",
            "LOAD risk /tmp/m.bundle",
            "PUSH",
            "PUSH onlyname",
            "PUSH a b c",
            "PUSH a notanumber",
            "PUSH a -1",
            "PUSH a 0",
            "PUSH a 99999999999999999999",
            "SCORE",
            "SCORE risk",
            "SCORE risk notanumber",
            "STATS extra",
            "HEALTH now",
            "EPOCH",
            "EPOCH a b",
            "METRICS now",
            "TRACE",
            "TRACE nothex",
            "TRACE 0",
            "TRACE a b",
            "CATALOG extra words",
            "CATALOG PARTIAL",
            "SYNC",
            "SYNC notanumber",
            "SYNC 0",
            "SYNC -1",
            "SYNC 1 2",
            "QUIT now",
            "FROB risk 1 2",
        ] {
            assert!(parse_request(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn trailing_trace_tokens_are_extracted_not_parsed_as_features() {
        assert_eq!(
            parse_request("SCORE risk 1 2 T=00000000000000aa").unwrap(),
            Request::Score {
                name: "risk".to_string(),
                features: vec![1.0, 2.0],
                trace: Some(0xaa)
            }
        );
        assert_eq!(
            parse_request("PUSH risk 16 T=00000000000000aa").unwrap(),
            Request::Push {
                name: "risk".to_string(),
                nbytes: 16,
                trace: Some(0xaa)
            }
        );
        // A malformed token is not silently dropped — it fails the f64
        // parse exactly as any junk argument does.
        assert!(parse_request("SCORE risk 1 T=nothex").is_err());
        // A token anywhere but last is an argument, so it is rejected too.
        assert!(parse_request("SCORE risk T=00000000000000aa 1").is_err());
    }

    #[test]
    fn float_round_trip_through_the_wire_format_is_bit_exact() {
        let values = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -1e308,
            6.02214076e23,
        ];
        let line = format_numbers(&values);
        let parsed = match parse_request(&format!("SCORE m {line}")).unwrap() {
            Request::Score { features, .. } => features,
            _ => unreachable!(),
        };
        for (a, b) in values.iter().zip(parsed.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn words_split_exactly_as_split_whitespace_does() {
        for s in [
            "",
            "  ",
            "SCORE risk 1 -2.5 3e-4",
            " a\tb\nc\x0Cd\re  ",
            "a\x0Bb c",
            "1\u{a0}2\u{2003}3 é\u{85}4",
        ] {
            assert_eq!(
                words(s).collect::<Vec<_>>(),
                s.split_whitespace().collect::<Vec<_>>(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn non_finite_features_are_rejected_by_position() {
        for (line, position) in [
            ("SCORE risk NaN 1", 0),
            ("SCORE risk 1 2 inf", 2),
            ("TRANSFORM risk 1 -infinity 3 T=00000000000000aa", 1),
            ("score risk 0.5 nan", 1),
        ] {
            let err = parse_request(line).unwrap_err().to_string();
            assert!(
                err.contains(&format!("feature {position} is not finite")),
                "'{line}': {err}"
            );
        }
        // Large finite values are features like any other.
        assert!(parse_request("SCORE risk 1e308 -1.7976931348623157e308").is_ok());
        // Positions count across parse chunks.
        let long = format!("SCORE risk {} inf", "1 ".repeat(FEATURE_CHUNK + 44));
        let err = parse_request(&long).unwrap_err().to_string();
        assert!(err.contains(&format!("feature {} is not finite", FEATURE_CHUNK + 44)));
    }

    #[test]
    fn vectors_of_any_length_parse_in_order() {
        for len in [
            1,
            FEATURE_CHUNK - 1,
            FEATURE_CHUNK,
            FEATURE_CHUNK + 1,
            2 * FEATURE_CHUNK + 3,
        ] {
            let values: Vec<f64> = (0..len).map(|i| i as f64 - 0.5).collect();
            let line = format!("TRANSFORM risk {}", format_numbers(&values));
            match parse_request(&line).unwrap() {
                Request::Transform { features, .. } => assert_eq!(features, values, "{len}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn err_lines_quote_at_most_a_bounded_prefix_of_the_offending_token() {
        let junk = "9".repeat(1 << 20) + "x";
        for line in [
            format!("SCORE risk 1 {junk}"),
            format!("PUSH risk {junk}"),
            format!("SYNC {junk}"),
            format!("TRACE {junk}"),
            format!("{junk} 1 2"),
            // A multi-byte character straddling the cut.
            format!("SCORE risk {}é{junk}", "x".repeat(MAX_ECHO - 1)),
        ] {
            let response = err_response(&parse_request(&line).unwrap_err());
            assert!(response.len() < 128, "{} bytes", response.len());
            assert!(response.contains('…'), "{response}");
        }
        let missing = err_response(&ServeError::ModelNotFound(junk));
        assert!(missing.len() < 128, "{} bytes", missing.len());
        assert!(missing.contains(MODEL_NOT_FOUND_PREFIX));
        // Short tokens are quoted whole.
        let response = err_response(&parse_request("SCORE risk 1 abc").unwrap_err());
        assert!(response.ends_with("'abc' is not a number"), "{response}");
    }

    #[test]
    fn score_requests_and_responses_are_written_in_wire_form() {
        let mut frame = String::new();
        write_score_request(&mut frame, "risk", &[0.5, -2.0, 1e-7], None);
        assert_eq!(frame, "SCORE risk 0.5 -2 0.0000001\n");
        write_score_request(&mut frame, "risk", &[1.0], Some(0xaa));
        assert_eq!(
            frame,
            "SCORE risk 0.5 -2 0.0000001\nSCORE risk 1 T=00000000000000aa\n"
        );
        assert_eq!(format_numbers(&[0.1 + 0.2, -0.0]), "0.30000000000000004 -0");
        assert_eq!(format_numbers(&[]), "");
        let mut response = score_response(0.25, false);
        assert_eq!(response, "OK 0.25 0");
        push_trace_token(&mut response, 0xaa);
        assert_eq!(response, "OK 0.25 0 T=00000000000000aa");
        assert_eq!(score_response(0.75, true), "OK 0.75 1");
    }

    #[test]
    fn responses_are_single_line() {
        assert_eq!(ok_response(""), "OK");
        assert_eq!(ok_response("0.5 1"), "OK 0.5 1");
        let err = ServeError::Model("multi\nline".to_string());
        assert!(!err_response(&err).contains('\n'));
        assert!(err_response(&err).starts_with("ERR "));
        // A message that quotes a whole payload line is cut, on a character
        // boundary, to the line cap.
        let err = ServeError::Model(format!("unknown bundle format '{}'", "é\n".repeat(1 << 19)));
        let response = err_response(&err);
        assert!(response.len() <= MAX_ERR_BYTES, "{} bytes", response.len());
        assert!(
            response.ends_with('…') && !response.contains('\n'),
            "{response}"
        );
    }
}
