//! A small blocking client for the daemon's line-delimited JSON protocol.
//!
//! Used by the CLI (`mdg serve --request …`), the smoke/CI driver, the
//! churn bench, and the integration tests; external clients can speak the
//! protocol from any language with a TCP socket and a JSON library.

use crate::protocol::*;
use mdg_geom::Point;
use serde::{Deserialize, Deserializer};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// Result of a request: the server answered (`Ok`) with either the parsed
/// success payload or a structured error body, or transport failed (`Err`).
pub type Reply<T> = io::Result<Result<T, ErrorBody>>;

/// One persistent connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Bound on a response line; the full-plan response for a large field
    /// is megabytes, so this is generous by default (64 MiB).
    pub max_line_bytes: usize,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            max_line_bytes: 64 << 20,
        })
    }

    /// Sends one raw request line (no trailing newline needed) and returns
    /// the raw response line. The building block for every typed helper —
    /// and for the robustness tests, which deliberately send garbage.
    pub fn send_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer_line(line)?;
        self.read_line()
    }

    fn writer_line(&mut self, line: &str) -> io::Result<()> {
        use io::Write;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        match read_request_line(&mut self.reader, self.max_line_bytes)? {
            LineRead::Line(l) => Ok(l),
            LineRead::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            LineRead::Oversized => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response line exceeded the client bound",
            )),
        }
    }

    /// Sends a typed request and parses the response as `T`, or as an
    /// [`ErrorResponse`] when the server reports `ok: false`.
    pub fn request<T: serde::Deserialize>(&mut self, req: &Request) -> Reply<T> {
        let line = serde_json::to_string(req)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let resp = self.send_raw(&line)?;
        let invalid =
            |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let ok = reply_ok(&resp).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })?;
        if ok {
            serde_json::from_str(&resp).map(Ok).map_err(invalid)
        } else {
            let err: ErrorResponse = serde_json::from_str(&resp).map_err(invalid)?;
            Ok(Err(err.error))
        }
    }

    /// `plan` with a server-generated uniform deployment.
    pub fn plan_uniform(
        &mut self,
        field: &str,
        n: u64,
        side: f64,
        seed: u64,
        range: f64,
    ) -> Reply<PlanSummary> {
        self.request(&Request {
            cmd: Some("plan".into()),
            field: Some(field.into()),
            n: Some(n),
            side: Some(side),
            seed: Some(seed),
            range: Some(range),
            ..Request::default()
        })
    }

    /// `plan` with explicit sensor positions.
    pub fn plan_sensors(
        &mut self,
        field: &str,
        sensors: Vec<Point>,
        sink: Option<Point>,
        range: f64,
    ) -> Reply<PlanSummary> {
        self.request(&Request {
            cmd: Some("plan".into()),
            field: Some(field.into()),
            sensors: Some(sensors),
            sink,
            range: Some(range),
            ..Request::default()
        })
    }

    /// `delta`: report deaths/additions/range change, get the repaired
    /// plan's summary.
    pub fn delta(
        &mut self,
        field: &str,
        died: Vec<u64>,
        added: Vec<Point>,
        range: Option<f64>,
    ) -> Reply<PlanSummary> {
        self.request(&Request {
            cmd: Some("delta".into()),
            field: Some(field.into()),
            died: Some(died),
            added: Some(added),
            range,
            ..Request::default()
        })
    }

    /// `get_plan`: fetch the session's full current plan.
    pub fn get_plan(&mut self, field: &str) -> Reply<GetPlanResponse> {
        self.request(&Request {
            cmd: Some("get_plan".into()),
            field: Some(field.into()),
            ..Request::default()
        })
    }

    /// `metrics`: server totals + obs profile delta + session summaries.
    pub fn metrics(&mut self) -> Reply<MetricsResponse> {
        self.request(&Request {
            cmd: Some("metrics".into()),
            ..Request::default()
        })
    }

    /// `shutdown`: ask the daemon to drain and exit. The server closes
    /// this connection after responding.
    pub fn shutdown(&mut self) -> Reply<ShutdownResponse> {
        self.request(&Request {
            cmd: Some("shutdown".into()),
            ..Request::default()
        })
    }
}

/// A reply's top-level `ok` flag (the first, if repeated), read without
/// decoding the rest: the server writes `ok` first, so this costs a few
/// bytes of a `get_plan` reply that is megabytes long.
fn reply_ok(reply: &str) -> Result<bool, serde_json::Error> {
    let mut de = Deserializer::new(reply);
    if de.begin_struct()? {
        while let Some(key) = de.next_key()? {
            if key == "ok" {
                return bool::deserialize(&mut de);
            }
            de.skip_value()?;
        }
    }
    Err(serde_json::Error::new("missing field `ok`"))
}
