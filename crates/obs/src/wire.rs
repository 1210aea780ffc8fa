//! Wire helpers for trace propagation and multi-line payloads over the
//! one-line-per-request protocol.
//!
//! *Trace tokens.* A trace id rides requests and responses as a trailing
//! `T=<16-hex>` token. The token is **optional** and only ever echoed
//! back to a caller that sent one — untraced responses are byte-for-byte
//! identical to pre-tracing responses, which preserves the bitwise
//! front-end and replica equality invariants.
//!
//! *Multi-line payloads.* `METRICS` and `TRACE` responses are logically
//! multi-line text, but every tier (and the pipelining client reactor)
//! counts response **lines**. The payload is therefore escaped onto one
//! line (`\` -> `\\`, newline -> `\n`) and unescaped by the consumer.

use std::fmt;

/// A trace id as its wire token, `T=<16-hex>`. Displaying it writes the
/// token straight into the caller's buffer, so a response that echoes it
/// needs no second `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceToken(pub u64);

impl fmt::Display for TraceToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T={:016x}", self.0)
    }
}

/// Formats a trace id as its wire token.
pub fn trace_token(id: u64) -> String {
    TraceToken(id).to_string()
}

/// Parses a `T=<hex>` token into a nonzero trace id.
pub fn parse_trace_token(token: &str) -> Option<u64> {
    let hex = token.strip_prefix("T=")?;
    match u64::from_str_radix(hex, 16) {
        Ok(id) if id != 0 => Some(id),
        _ => None,
    }
}

/// Splits a trailing ` T=<hex>` echo off a response line, returning the
/// bare line and the id when present.
pub fn strip_trace_echo(line: &str) -> (&str, Option<u64>) {
    if let Some((head, tail)) = line.rsplit_once(' ') {
        if let Some(id) = parse_trace_token(tail) {
            return (head, Some(id));
        }
    }
    (line, None)
}

/// Escapes multi-line text onto one wire line.
pub fn escape_multiline(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Inverse of [`escape_multiline`].
pub fn unescape_multiline(wire: &str) -> String {
    let mut out = String::with_capacity(wire.len());
    let mut chars = wire.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_tokens_round_trip() {
        let id = 0xdead_beef_0042_1337u64;
        assert_eq!(parse_trace_token(&trace_token(id)), Some(id));
        assert_eq!(parse_trace_token("T=0000000000000000"), None);
        assert_eq!(parse_trace_token("T=nothex"), None);
        assert_eq!(parse_trace_token("X=1"), None);
    }

    #[test]
    fn echo_stripping_only_takes_valid_trailing_tokens() {
        let (bare, id) = strip_trace_echo("OK 0.5 1 T=00000000000000ff");
        assert_eq!(bare, "OK 0.5 1");
        assert_eq!(id, Some(0xff));
        let (bare, id) = strip_trace_echo("OK 0.5 1");
        assert_eq!(bare, "OK 0.5 1");
        assert_eq!(id, None);
        // A token mid-line is not an echo.
        let (bare, id) = strip_trace_echo("T=00000000000000ff gone");
        assert_eq!(bare, "T=00000000000000ff gone");
        assert_eq!(id, None);
    }

    #[test]
    fn multiline_escaping_round_trips() {
        let text = "a{b=\"c\"} 1\nback\\slash\nlast line\n";
        let wire = escape_multiline(text);
        assert!(!wire.contains('\n'));
        assert_eq!(unescape_multiline(&wire), text);
        assert_eq!(unescape_multiline(""), "");
    }
}
