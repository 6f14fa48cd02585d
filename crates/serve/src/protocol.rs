//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every request and every response is exactly one JSON object on one
//! `\n`-terminated line. Requests are a single flat struct ([`Request`])
//! whose `cmd` field selects the operation; fields irrelevant to a command
//! are ignored, missing fields deserialize to `None`. Responses always
//! carry an `ok` boolean: `true` responses are command-specific
//! ([`PlanSummary`], [`GetPlanResponse`], [`MetricsResponse`],
//! [`ShutdownResponse`]), `false` responses are an [`ErrorResponse`] with a
//! stable machine-readable [`ErrorBody::code`].
//!
//! ## Commands
//!
//! | `cmd` | consumes | returns |
//! |---|---|---|
//! | `plan` | `field`, `range`, and either `n`+`side`(+`seed`) or `sensors`(+`sink`) | [`PlanSummary`] (`mode: "cold"`) |
//! | `delta` | `field`, any of `died`, `added`, `range` | [`PlanSummary`] (`mode: "repair"`/`"replan"`/`"noop"`) |
//! | `get_plan` | `field` | [`GetPlanResponse`] with the full plan |
//! | `metrics` | — | [`MetricsResponse`] |
//! | `shutdown` | — | [`ShutdownResponse`], then the daemon drains |
//!
//! ## Error codes
//!
//! `bad_json`, `unknown_cmd`, `bad_request`, `unknown_session`,
//! `oversized` (the offending connection is closed after the response),
//! `shutting_down`, and `internal` (a handler panicked; the session it was
//! mutating is evicted so no corrupt state survives).

use mdg_core::GatheringPlan;
use mdg_geom::Point;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// Protocol version reported by [`MetricsResponse`]. Version 2 added the
/// `kind` and `approx_bytes` fields to [`SessionInfo`] (hierarchical
/// sessions and byte-aware eviction); requests are unchanged.
pub const PROTOCOL_VERSION: u64 = 2;

/// A client request: one flat struct for every command. `cmd` selects the
/// operation; the vendored serde treats absent JSON fields as `None`, so a
/// request only carries what its command needs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Request {
    /// `plan` | `delta` | `get_plan` | `metrics` | `shutdown`.
    pub cmd: Option<String>,
    /// Session (field) name; required by `plan`, `delta`, `get_plan`.
    pub field: Option<String>,
    /// `plan`: number of sensors for a generated uniform deployment.
    pub n: Option<u64>,
    /// `plan`: side of the square field in meters (generated deployment).
    pub side: Option<f64>,
    /// `plan`: RNG seed for the generated deployment (default 42).
    pub seed: Option<u64>,
    /// `plan`: explicit sensor positions (alternative to `n`/`side`).
    pub sensors: Option<Vec<Point>>,
    /// `plan`: sink position for an explicit deployment (default: field
    /// bounding-box center).
    pub sink: Option<Point>,
    /// `plan`: transmission range in meters (required). `delta`: new range
    /// (optional; triggers coverage revalidation + repair).
    pub range: Option<f64>,
    /// `delta`: sensor ids that died since the last request.
    pub died: Option<Vec<u64>>,
    /// `delta`: positions of sensors added since the last request.
    pub added: Option<Vec<Point>>,
}

/// Machine-readable error payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable error code (see module docs).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// `ok: false` response envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Always `false`.
    pub ok: bool,
    /// What went wrong.
    pub error: ErrorBody,
}

impl ErrorResponse {
    /// Builds an error response with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ErrorResponse {
            ok: false,
            error: ErrorBody {
                code: code.to_string(),
                message: message.into(),
            },
        }
    }
}

/// Successful `plan`/`delta` response: a summary of the session's current
/// plan (fetch the full plan with `get_plan`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Always `true`.
    pub ok: bool,
    /// Session name.
    pub field: String,
    /// How the plan was produced: `cold` (fresh plan), `repair`
    /// (incremental adopt/splice), `replan` (repair escalated to a full
    /// re-plan of the live sub-network), or `noop` (nothing to do).
    pub mode: String,
    /// Monotonic plan generation within the session (0 = cold plan).
    /// Every acknowledged `delta` advances it by exactly one, a `noop`
    /// included, so a gap in the generations a client sees is a missed
    /// update.
    pub generation: u64,
    /// Total sensors the session tracks (alive + dead).
    pub n_sensors: u64,
    /// Sensors currently alive.
    pub live: u64,
    /// Polling points in the current tour.
    pub polling_points: u64,
    /// Closed tour length in meters.
    pub tour_m: f64,
    /// Server-side wall time spent planning/repairing, milliseconds.
    pub elapsed_ms: f64,
}

/// Successful `get_plan` response: the session's full current plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GetPlanResponse {
    /// Always `true`.
    pub ok: bool,
    /// Session name.
    pub field: String,
    /// Plan generation (matches the last `plan`/`delta` summary).
    pub generation: u64,
    /// Transmission range the plan was built for.
    pub range: f64,
    /// The complete gathering plan (tour-ordered polling points +
    /// assignment). Dead sensors carry `assignment[s] == usize::MAX`.
    pub plan: GatheringPlan,
}

/// A [`GetPlanResponse`] over borrowed fields: the daemon writes the reply
/// straight from the session's plan, under its lock, without copying it.
/// The text is the derived impl's, byte for byte.
pub(crate) struct GetPlanReply<'a> {
    pub field: &'a str,
    pub generation: u64,
    pub range: f64,
    pub plan: &'a GatheringPlan,
}

impl Serialize for GetPlanReply<'_> {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.field("ok", &true);
        s.field("field", self.field);
        s.field("generation", &self.generation);
        s.field("range", &self.range);
        s.field("plan", self.plan);
        s.end_object();
    }
}

/// One phase-span record in a [`MetricsResponse`] (mirrors
/// `mdg_obs::SpanRecord`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanEntry {
    /// `/`-joined span path, e.g. `serve/delta/repair`.
    pub path: String,
    /// Spans closed under this path.
    pub calls: u64,
    /// Total wall nanoseconds.
    pub wall_nanos: u64,
    /// Items attributed to the span.
    pub items: u64,
}

/// One counter record in a [`MetricsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Counter path, e.g. `serve/requests/delta`.
    pub path: String,
    /// Accumulated value since server start.
    pub value: u64,
}

/// One log2-histogram record in a [`MetricsResponse`] (mirrors
/// `mdg_obs::HistRecord`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistEntry {
    /// Histogram path, e.g. `serve/latency_us/delta`.
    pub path: String,
    /// Total samples.
    pub count: u64,
    /// Non-empty `(log2 bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// Per-session summary in a [`MetricsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionInfo {
    /// Session name.
    pub field: String,
    /// Session flavor: `"flat"` (adopt/splice repair) or `"hier"`
    /// (retained tiled plan, dirty-tile deltas).
    pub kind: String,
    /// Total sensors tracked.
    pub n_sensors: u64,
    /// Sensors alive.
    pub live: u64,
    /// Polling points in the current tour.
    pub polling_points: u64,
    /// Current tour length, meters.
    pub tour_m: f64,
    /// Plan generation.
    pub generation: u64,
    /// Estimated heap footprint of the warm session, bytes (drives the
    /// server's byte-aware LRU eviction).
    pub approx_bytes: u64,
    /// Wall time of the session's cold plan, milliseconds.
    pub cold_plan_ms: f64,
    /// Delta requests applied.
    pub deltas: u64,
    /// Deltas resolved by incremental repair.
    pub repairs: u64,
    /// Deltas that escalated to a full re-plan.
    pub full_replans: u64,
}

/// Successful `metrics` response: server totals plus the `mdg-obs`
/// profile delta since server start (the server snapshots its baseline at
/// startup and diffs against it, so the host process's registry is never
/// reset).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Always `true`.
    pub ok: bool,
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub protocol: u64,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Requests handled (all commands, including errors).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Sessions evicted by the LRU bound.
    pub evictions: u64,
    /// Live sessions, most-recently-used last.
    pub sessions: Vec<SessionInfo>,
    /// Span deltas since server start.
    pub spans: Vec<SpanEntry>,
    /// Counter deltas since server start.
    pub counters: Vec<CounterEntry>,
    /// Histogram deltas since server start.
    pub hists: Vec<HistEntry>,
}

/// Successful `shutdown` response, written before the daemon drains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `true`.
    pub ok: bool,
    /// Always `true`: the daemon stops accepting and drains in-flight
    /// connections after this response.
    pub draining: bool,
}

/// Minimal envelope for clients that only need to know whether a response
/// succeeded before committing to a command-specific parse.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ack {
    /// The response's success flag.
    pub ok: bool,
}

/// Outcome of [`read_request_line`].
#[derive(Debug)]
pub enum LineRead {
    /// A complete `\n`-terminated line (terminator stripped).
    Line(String),
    /// Clean end of stream (at a line boundary, or mid-line — a truncated
    /// trailing line is dropped, not parsed).
    Eof,
    /// The line exceeded the configured byte bound before a `\n` arrived.
    Oversized,
}

/// Status of one [`read_request_line_into`] call; on `Line` the bytes
/// live in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineStatus {
    /// A complete line was read into the buffer (terminator stripped).
    Line,
    /// Clean end of stream; the buffer holds any truncated trailing bytes.
    Eof,
    /// The line exceeded the byte bound before a `\n` arrived.
    Oversized,
}

/// Reads one `\n`-terminated line of at most `max_bytes` bytes.
///
/// The bound is enforced *while reading*: an attacker streaming an endless
/// line is cut off after `max_bytes`, never buffered whole. I/O errors
/// (including read timeouts) surface as `Err`.
pub fn read_request_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> io::Result<LineRead> {
    let mut line = Vec::new();
    Ok(
        match read_request_line_into(reader, max_bytes, &mut line)? {
            // A valid line (every reply the daemon writes) is taken as it
            // is; only invalid bytes cost a lossy copy.
            LineStatus::Line => LineRead::Line(
                String::from_utf8(line)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
            ),
            LineStatus::Eof => LineRead::Eof,
            LineStatus::Oversized => LineRead::Oversized,
        },
    )
}

/// [`read_request_line`] into a caller-owned buffer (cleared first), so a
/// connection serving many requests reuses one line buffer at its
/// high-water capacity instead of allocating per request.
pub fn read_request_line_into<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    line: &mut Vec<u8>,
) -> io::Result<LineStatus> {
    line.clear();
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF. A partial trailing line (truncated request) is dropped:
            // there is no one left to answer.
            return Ok(LineStatus::Eof);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max_bytes {
                    reader.consume(pos + 1);
                    return Ok(LineStatus::Oversized);
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineStatus::Line);
            }
            None => {
                let len = buf.len();
                if line.len() + len > max_bytes {
                    reader.consume(len);
                    return Ok(LineStatus::Oversized);
                }
                line.extend_from_slice(buf);
                reader.consume(len);
            }
        }
    }
}

/// Serializes `value` and writes it as one `\n`-terminated line, flushing.
pub fn write_response_line<W: Write, T: Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(json.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_roundtrip_with_missing_fields() {
        let req: Request =
            serde_json::from_str(r#"{"cmd":"plan","field":"f","n":100,"side":200,"range":30}"#)
                .unwrap();
        assert_eq!(req.cmd.as_deref(), Some("plan"));
        assert_eq!(req.n, Some(100));
        assert!(req.died.is_none());
        assert!(req.sensors.is_none());
        // Unknown fields are ignored.
        let req: Request = serde_json::from_str(r#"{"cmd":"metrics","bogus":1}"#).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("metrics"));
    }

    #[test]
    fn read_line_splits_and_strips() {
        let mut r = BufReader::new(&b"{\"a\":1}\r\n{\"b\":2}\n"[..]);
        match read_request_line(&mut r, 1024).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "{\"a\":1}"),
            other => panic!("{other:?}"),
        }
        match read_request_line(&mut r, 1024).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "{\"b\":2}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_request_line(&mut r, 1024).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn invalid_utf8_reads_with_replacement_characters() {
        let mut r = BufReader::new(&b"{\"a\":\"x\xffy\"}\n"[..]);
        match read_request_line(&mut r, 1024).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "{\"a\":\"x\u{FFFD}y\"}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_trailing_line_is_eof() {
        let mut r = BufReader::new(&b"{\"cmd\":\"plan\""[..]);
        assert!(matches!(
            read_request_line(&mut r, 1024).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn oversized_line_is_cut_off_not_buffered() {
        let big = vec![b'x'; 4096];
        let mut r = BufReader::new(&big[..]);
        assert!(matches!(
            read_request_line(&mut r, 64).unwrap(),
            LineRead::Oversized
        ));
    }

    #[test]
    fn oversized_with_newline_resyncs_to_next_line() {
        let mut data = vec![b'x'; 256];
        data.extend_from_slice(b"\n{\"ok\":1}\n");
        let mut r = BufReader::new(&data[..]);
        assert!(matches!(
            read_request_line(&mut r, 64).unwrap(),
            LineRead::Oversized
        ));
    }

    #[test]
    fn get_plan_reply_writes_the_derived_text() {
        use mdg_core::PollingPoint;
        let sink = Point { x: 50.0, y: 0.25 };
        let polling_points = vec![
            PollingPoint {
                pos: Point { x: 1.5, y: 2.0 },
                candidate: 0,
                covered: vec![0, 3],
            },
            PollingPoint {
                pos: Point {
                    x: 1e-7,
                    y: 4_471.999_999_999_9,
                },
                candidate: 2,
                covered: vec![2],
            },
            PollingPoint {
                pos: Point { x: 9e15, y: 3.0 },
                candidate: usize::MAX,
                covered: vec![],
            },
        ];
        // Sensors 1 and 4 are dead.
        let assignment = vec![0, usize::MAX, 1, 0, usize::MAX];
        for plan in [
            GatheringPlan::new(sink, polling_points, assignment),
            GatheringPlan::new(sink, vec![], vec![usize::MAX; 3]),
        ] {
            let borrowed = GetPlanReply {
                field: "f\"\u{1}😀",
                generation: 7,
                range: 30.5,
                plan: &plan,
            };
            let owned = GetPlanResponse {
                ok: true,
                field: borrowed.field.to_string(),
                generation: borrowed.generation,
                range: borrowed.range,
                plan: plan.clone(),
            };
            assert_eq!(
                serde_json::to_string(&borrowed).unwrap(),
                serde_json::to_string(&owned).unwrap()
            );
            assert_eq!(
                serde_json::to_string_pretty(&borrowed).unwrap(),
                serde_json::to_string_pretty(&owned).unwrap()
            );
        }
    }

    #[test]
    fn error_response_serializes() {
        let e = ErrorResponse::new("bad_json", "oops");
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"ok\":false"), "{json}");
        assert!(json.contains("\"code\":\"bad_json\""), "{json}");
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.code, "bad_json");
    }
}
