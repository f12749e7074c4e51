//! The versioned, stable serialized form of a [`RunReport`]
//! (`schema = 1`), shared by the result cache ([`crate::cache`]) and the
//! `peas-bench` binaries.
//!
//! The encoding is one JSON object per report with a pinned key set and
//! key order (see the contract test in `crates/sim/tests/report_schema.rs`
//! — renaming or reordering a field is a schema break and must bump
//! [`REPORT_SCHEMA`]). Floating-point values are rendered with Rust's
//! shortest-round-trip formatting, so `decode(encode(r)) == r` is exact
//! down to the last bit — the property the resume path's "byte-identical
//! merged report" guarantee rests on.
//!
//! The parser is a dependency-free recursive-descent JSON reader. Numbers
//! are kept as raw text until a typed field decode requests `u64`/`f64`,
//! so integers never round-trip through floating point.

use peas::NodeStats;
use peas_radio::{EnergyCause, EnergyLedger, MediumStats};

use crate::metrics::{RunReport, Sample};

/// Version tag embedded in every encoded report (`"schema": 1`). Bump on
/// any change to field names, order or meaning; [`decode_report`] rejects
/// mismatching versions.
pub const REPORT_SCHEMA: u64 = 1;

/// The `(cause, json key)` pairs of the energy ledger object, in encoding
/// order.
const LEDGER_KEYS: [(EnergyCause, &str); 7] = [
    (EnergyCause::ProtocolTx, "protocol_tx"),
    (EnergyCause::ProtocolRx, "protocol_rx"),
    (EnergyCause::ProtocolIdle, "protocol_idle"),
    (EnergyCause::AppTx, "app_tx"),
    (EnergyCause::AppRx, "app_rx"),
    (EnergyCause::WorkingIdle, "working_idle"),
    (EnergyCause::Sleep, "sleep"),
];

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Escapes `s` as the *contents* of a JSON string literal (no surrounding
/// quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Renders `v` in the shortest form that parses back to the identical
/// bits (Rust's `{:?}` float formatting).
///
/// # Panics
///
/// Panics if `v` is NaN or infinite — reports only ever hold finite
/// values, and JSON has no encoding for the rest.
fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "cannot encode non-finite float {v}");
    format!("{v:?}")
}

fn encode_sample(out: &mut String, s: &Sample) {
    out.push_str(&format!("{{\"t_secs\":{}", fmt_f64(s.t_secs)));
    out.push_str(",\"coverage\":[");
    for (i, c) in s.coverage.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*c));
    }
    out.push_str(&format!(
        "],\"working\":{},\"sleeping\":{},\"alive\":{}",
        s.working, s.sleeping, s.alive
    ));
    match s.delivery_ratio {
        Some(r) => out.push_str(&format!(",\"delivery_ratio\":{}", fmt_f64(r))),
        None => out.push_str(",\"delivery_ratio\":null"),
    }
    out.push_str(&format!(",\"total_wakeups\":{}}}", s.total_wakeups));
}

fn encode_node_stats(out: &mut String, n: &NodeStats) {
    out.push_str(&format!(
        "{{\"wakeups\":{},\"probes_sent\":{},\"replies_sent\":{},\"probes_heard\":{},\
         \"replies_heard\":{},\"measurements\":{},\"window_with_reply\":{},\
         \"window_silent\":{},\"turnoffs\":{},\"replies_overheard\":{}}}",
        n.wakeups,
        n.probes_sent,
        n.replies_sent,
        n.probes_heard,
        n.replies_heard,
        n.measurements,
        n.window_with_reply,
        n.window_silent,
        n.turnoffs,
        n.replies_overheard
    ));
}

fn encode_ledger(out: &mut String, ledger: &EnergyLedger) {
    out.push('{');
    for (i, (cause, key)) in LEDGER_KEYS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":{}", fmt_f64(ledger.for_cause(*cause))));
    }
    out.push('}');
}

fn encode_medium(out: &mut String, m: &MediumStats) {
    out.push_str(&format!(
        "{{\"frames_sent\":{},\"deliveries_ok\":{},\"collisions\":{},\"random_losses\":{}}}",
        m.frames_sent, m.deliveries_ok, m.collisions, m.random_losses
    ));
}

/// Encodes a report in its canonical schema-1 form: a single-line JSON
/// object with a pinned key order. Two equal reports encode to identical
/// bytes, and `decode_report(encode_report(r))` reproduces `r` exactly.
///
/// # Panics
///
/// Panics if the report holds a non-finite float (cannot happen for
/// reports produced by [`crate::World::run`]).
pub fn encode_report(report: &RunReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\"schema\":{REPORT_SCHEMA},\"node_count\":{},\"seed\":{}",
        report.node_count, report.seed
    ));
    out.push_str(",\"samples\":[");
    for (i, s) in report.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_sample(&mut out, s);
    }
    out.push_str("],\"node_stats\":");
    encode_node_stats(&mut out, &report.node_stats);
    out.push_str(",\"ledger_j\":");
    encode_ledger(&mut out, &report.ledger);
    out.push_str(&format!(",\"consumed_j\":{}", fmt_f64(report.consumed_j)));
    out.push_str(",\"medium\":");
    encode_medium(&mut out, &report.medium);
    out.push_str(&format!(
        ",\"failures_injected\":{},\"energy_deaths\":{},\"generated_reports\":{},\
         \"delivered_reports\":{},\"events_total\":{},\"events_detected\":{},\
         \"events_delivered\":{}",
        report.failures_injected,
        report.energy_deaths,
        report.generated_reports,
        report.delivered_reports,
        report.events_total,
        report.events_detected,
        report.events_delivered
    ));
    out.push_str(&format!(
        ",\"end_secs\":{},\"events_processed\":{}}}",
        fmt_f64(report.end_secs),
        report.events_processed
    ));
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers stay as raw source text so typed decodes
/// can parse them losslessly (`u64` never detours through `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses one JSON document (with nothing but whitespace after it).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(src, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == want {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", want as char))
    }
}

fn parse_value(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match b {
        b'{' => parse_object(src, bytes, pos),
        b'[' => parse_array(src, bytes, pos),
        b'"' => Ok(Json::Str(parse_string(src, bytes, pos)?)),
        b'n' => parse_keyword(bytes, pos, "null", Json::Null),
        b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        b'-' | b'0'..=b'9' => parse_number(src, bytes, pos),
        other => Err(format!("unexpected `{}` at byte {pos}", other as char)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed keyword at byte {pos}"))
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("empty number at byte {start}"));
    }
    Ok(Json::Num(src[start..*pos].to_string()))
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = src
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code}"))?,
                        );
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Consume one full UTF-8 scalar, not one byte.
                let rest = &src[*pos..];
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid UTF-8".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(src, bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Typed decoding
// ---------------------------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn as_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v {
        Json::Num(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("field `{key}`: `{raw}` is not a u64")),
        other => Err(format!(
            "field `{key}`: expected number, got {}",
            other.type_name()
        )),
    }
}

fn as_usize(v: &Json, key: &str) -> Result<usize, String> {
    as_u64(v, key)
        .and_then(|n| usize::try_from(n).map_err(|_| format!("field `{key}`: {n} exceeds usize")))
}

fn as_f64(v: &Json, key: &str) -> Result<f64, String> {
    match v {
        Json::Num(raw) => raw
            .parse::<f64>()
            .map_err(|_| format!("field `{key}`: `{raw}` is not a float")),
        other => Err(format!(
            "field `{key}`: expected number, got {}",
            other.type_name()
        )),
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    as_u64(field(obj, key)?, key)
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, String> {
    as_usize(field(obj, key)?, key)
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    as_f64(field(obj, key)?, key)
}

fn decode_sample(v: &Json) -> Result<Sample, String> {
    let coverage = match field(v, "coverage")? {
        Json::Arr(items) => items
            .iter()
            .map(|c| as_f64(c, "coverage"))
            .collect::<Result<Vec<f64>, String>>()?,
        other => {
            return Err(format!(
                "field `coverage`: expected array, got {}",
                other.type_name()
            ))
        }
    };
    let delivery_ratio = match field(v, "delivery_ratio")? {
        Json::Null => None,
        num => Some(as_f64(num, "delivery_ratio")?),
    };
    Ok(Sample {
        t_secs: get_f64(v, "t_secs")?,
        coverage,
        working: get_usize(v, "working")?,
        sleeping: get_usize(v, "sleeping")?,
        alive: get_usize(v, "alive")?,
        delivery_ratio,
        total_wakeups: get_u64(v, "total_wakeups")?,
    })
}

fn decode_node_stats(v: &Json) -> Result<NodeStats, String> {
    Ok(NodeStats {
        wakeups: get_u64(v, "wakeups")?,
        probes_sent: get_u64(v, "probes_sent")?,
        replies_sent: get_u64(v, "replies_sent")?,
        probes_heard: get_u64(v, "probes_heard")?,
        replies_heard: get_u64(v, "replies_heard")?,
        measurements: get_u64(v, "measurements")?,
        window_with_reply: get_u64(v, "window_with_reply")?,
        window_silent: get_u64(v, "window_silent")?,
        turnoffs: get_u64(v, "turnoffs")?,
        replies_overheard: get_u64(v, "replies_overheard")?,
    })
}

fn decode_ledger(v: &Json) -> Result<EnergyLedger, String> {
    let mut ledger = EnergyLedger::new();
    for (cause, key) in LEDGER_KEYS {
        let joules = get_f64(v, key)?;
        if !(joules.is_finite() && joules >= 0.0) {
            return Err(format!("field `{key}`: energy {joules} out of range"));
        }
        ledger.add(cause, joules);
    }
    Ok(ledger)
}

fn decode_medium(v: &Json) -> Result<MediumStats, String> {
    Ok(MediumStats {
        frames_sent: get_u64(v, "frames_sent")?,
        deliveries_ok: get_u64(v, "deliveries_ok")?,
        collisions: get_u64(v, "collisions")?,
        random_losses: get_u64(v, "random_losses")?,
    })
}

/// Decodes a report from its canonical schema-1 form (see
/// [`encode_report`]).
///
/// # Errors
///
/// Returns a description of the first syntax error, missing field, type
/// mismatch, or schema-version mismatch.
pub fn decode_report(src: &str) -> Result<RunReport, String> {
    decode_report_value(&parse_json(src)?)
}

/// Decodes a report from an already-parsed JSON object.
///
/// # Errors
///
/// As [`decode_report`], minus syntax errors.
pub fn decode_report_value(v: &Json) -> Result<RunReport, String> {
    let schema = get_u64(v, "schema")?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "unsupported report schema {schema} (this build reads schema {REPORT_SCHEMA})"
        ));
    }
    let samples = match field(v, "samples")? {
        Json::Arr(items) => items
            .iter()
            .map(decode_sample)
            .collect::<Result<Vec<Sample>, String>>()?,
        other => {
            return Err(format!(
                "field `samples`: expected array, got {}",
                other.type_name()
            ))
        }
    };
    Ok(RunReport {
        node_count: get_usize(v, "node_count")?,
        seed: get_u64(v, "seed")?,
        samples,
        node_stats: decode_node_stats(field(v, "node_stats")?)?,
        ledger: decode_ledger(field(v, "ledger_j")?)?,
        consumed_j: get_f64(v, "consumed_j")?,
        medium: decode_medium(field(v, "medium")?)?,
        failures_injected: get_u64(v, "failures_injected")?,
        energy_deaths: get_u64(v, "energy_deaths")?,
        generated_reports: get_u64(v, "generated_reports")?,
        delivered_reports: get_u64(v, "delivered_reports")?,
        events_total: get_u64(v, "events_total")?,
        events_detected: get_u64(v, "events_detected")?,
        events_delivered: get_u64(v, "events_delivered")?,
        end_secs: get_f64(v, "end_secs")?,
        events_processed: get_u64(v, "events_processed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5e3,null,true,"x\"y"],"b":{}}"#).expect("parses");
        let a = v.get("a").expect("a");
        match a {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num("1".to_string()));
                assert_eq!(items[1], Json::Num("-2.5e3".to_string()));
                assert_eq!(items[2], Json::Null);
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Str("x\"y".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", json_escape(nasty));
        assert_eq!(
            parse_json(&doc).expect("parses"),
            Json::Str(nasty.to_string())
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &v in &[
            0.0,
            1.0,
            0.1,
            1e-12,
            123456.789,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
        ] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{text} did not round-trip");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_rejected_at_encode() {
        let _ = fmt_f64(f64::NAN);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let err = decode_report(r#"{"schema":2}"#).expect_err("must reject");
        assert!(err.contains("unsupported report schema 2"), "{err}");
    }
}
