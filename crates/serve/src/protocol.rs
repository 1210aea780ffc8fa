//! The line-delimited text protocol spoken over TCP.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! LOAD <name> <path>            -> OK loaded <name>@<gen> features=<m> dim=<d>
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
//! `PUSH` is `LOAD` without the shared-filesystem assumption: the client
//! (typically the routing tier placing a replica) ships the serialized
//! [`ModelBundle`](pfr_core::persistence::ModelBundle) text over the wire
//! as a counted payload instead of naming a path the server must be able
//! to read. `PUSH` requests are counted under the `load` stats verb.
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

use crate::error::ServeError;
use crate::Result;

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
    /// Load (or hot-swap) the bundle file at `path` under `name`.
    Load {
        /// Registry name to serve the model under.
        name: String,
        /// Filesystem path of the serialized bundle.
        path: String,
    },
    /// Load (or hot-swap) a bundle whose text follows the header line as a
    /// counted payload of `nbytes` bytes — wire-level model distribution
    /// with no shared filesystem.
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

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request> {
    let mut parts = Vec::new();
    let mut words = line.split_whitespace();
    let verb = words
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request line".to_string()))?
        .to_ascii_uppercase();
    parts.extend(words);
    // An optional trailing trace token joins the request to an existing
    // trace on SCORE / TRANSFORM / PUSH; it is framing, not an argument.
    let mut trace = None;
    if matches!(verb.as_str(), "SCORE" | "TRANSFORM" | "PUSH") {
        if let Some(last) = parts.last() {
            if let Some(id) = pfr_obs::parse_trace_token(last) {
                trace = Some(id);
                parts.pop();
            }
        }
    }
    match verb.as_str() {
        "LOAD" => {
            if parts.len() != 2 {
                return Err(ServeError::Protocol(
                    "usage: LOAD <name> <path>".to_string(),
                ));
            }
            Ok(Request::Load {
                name: parts[0].to_string(),
                path: parts[1].to_string(),
            })
        }
        "PUSH" => {
            if parts.len() != 2 {
                return Err(ServeError::Protocol(
                    "usage: PUSH <name> <nbytes>".to_string(),
                ));
            }
            let nbytes = parts[1].parse::<usize>().map_err(|_| {
                ServeError::Protocol(format!("'{}' is not a payload length", parts[1]))
            })?;
            if nbytes == 0 || nbytes > MAX_PUSH_BYTES {
                return Err(ServeError::Protocol(format!(
                    "payload length {nbytes} is outside 1..={MAX_PUSH_BYTES}"
                )));
            }
            Ok(Request::Push {
                name: parts[0].to_string(),
                nbytes,
                trace,
            })
        }
        "SCORE" | "TRANSFORM" => {
            if parts.len() < 2 {
                return Err(ServeError::Protocol(format!(
                    "usage: {verb} <name> <v1> ... <vm>"
                )));
            }
            let name = parts[0].to_string();
            let features = parts[1..]
                .iter()
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| ServeError::Protocol(format!("'{v}' is not a number")))
                })
                .collect::<Result<Vec<f64>>>()?;
            if verb == "SCORE" {
                Ok(Request::Score {
                    name,
                    features,
                    trace,
                })
            } else {
                Ok(Request::Transform {
                    name,
                    features,
                    trace,
                })
            }
        }
        "STATS" => {
            if !parts.is_empty() {
                return Err(ServeError::Protocol("STATS takes no arguments".to_string()));
            }
            Ok(Request::Stats)
        }
        "HEALTH" => {
            if !parts.is_empty() {
                return Err(ServeError::Protocol(
                    "HEALTH takes no arguments".to_string(),
                ));
            }
            Ok(Request::Health)
        }
        "EPOCH" => {
            if parts.len() != 1 {
                return Err(ServeError::Protocol("usage: EPOCH <name>".to_string()));
            }
            Ok(Request::Epoch {
                name: parts[0].to_string(),
            })
        }
        "METRICS" => {
            if !parts.is_empty() {
                return Err(ServeError::Protocol(
                    "METRICS takes no arguments".to_string(),
                ));
            }
            Ok(Request::Metrics)
        }
        "TRACE" => {
            if parts.len() != 1 {
                return Err(ServeError::Protocol("usage: TRACE <hex-id>".to_string()));
            }
            let id = u64::from_str_radix(parts[0], 16)
                .ok()
                .filter(|&id| id != 0)
                .ok_or_else(|| ServeError::Protocol(format!("'{}' is not a trace id", parts[0])))?;
            Ok(Request::Trace { id })
        }
        "CATALOG" => match parts.as_slice() {
            [] => Ok(Request::Catalog { full: false }),
            [arg] if arg.eq_ignore_ascii_case("FULL") => Ok(Request::Catalog { full: true }),
            _ => Err(ServeError::Protocol("usage: CATALOG [FULL]".to_string())),
        },
        "SYNC" => {
            if parts.len() != 1 {
                return Err(ServeError::Protocol("usage: SYNC <nbytes>".to_string()));
            }
            let nbytes = parts[0].parse::<usize>().map_err(|_| {
                ServeError::Protocol(format!("'{}' is not a payload length", parts[0]))
            })?;
            if nbytes == 0 || nbytes > MAX_PUSH_BYTES {
                return Err(ServeError::Protocol(format!(
                    "payload length {nbytes} is outside 1..={MAX_PUSH_BYTES}"
                )));
            }
            Ok(Request::Sync { nbytes })
        }
        "QUIT" => {
            if !parts.is_empty() {
                return Err(ServeError::Protocol("QUIT takes no arguments".to_string()));
            }
            Ok(Request::Quit)
        }
        other => Err(ServeError::Protocol(format!("unknown verb '{other}'"))),
    }
}

/// Renders a successful response payload.
pub fn ok_response(payload: &str) -> String {
    if payload.is_empty() {
        "OK".to_string()
    } else {
        format!("OK {payload}")
    }
}

/// Renders an error response.
pub fn err_response(err: &ServeError) -> String {
    // Keep responses single-line whatever the error contains.
    let msg = err.to_string().replace('\n', " ");
    format!("ERR {msg}")
}

/// Renders a vector of numbers with shortest-round-trip formatting.
pub fn format_numbers(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("LOAD risk /tmp/m.bundle").unwrap(),
            Request::Load {
                name: "risk".to_string(),
                path: "/tmp/m.bundle".to_string()
            }
        );
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
            "LOAD",
            "LOAD onlyname",
            "LOAD a b c",
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
    fn responses_are_single_line() {
        assert_eq!(ok_response(""), "OK");
        assert_eq!(ok_response("0.5 1"), "OK 0.5 1");
        let err = ServeError::Model("multi\nline".to_string());
        assert!(!err_response(&err).contains('\n'));
        assert!(err_response(&err).starts_with("ERR "));
    }
}
