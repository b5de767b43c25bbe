//! A blocking client for the `pathway serve` wire protocol.
//!
//! One [`Client`] wraps one TCP connection; every method is a synchronous
//! request/reply exchange (plus, for [`Client::watch`], a streamed tail).
//! The `pathway` CLI's client subcommands are thin wrappers around this
//! type, and the integration tests drive daemons through it directly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use pathway_core::jsonlite::JsonValue;

use crate::server::ENDPOINT_FILE;
use crate::wire::{JobSummary, Request, StatusSnapshot, WatchEvent};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection itself failed (refused, reset, closed mid-reply).
    Io(std::io::Error),
    /// The server sent something that does not parse as a reply.
    Protocol(String),
    /// The server answered `{"ok":false,…}`; the payload is its `error`.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "connection error: {err}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// Reads the daemon address recorded in a data dir's endpoint file.
///
/// # Errors
///
/// The underlying I/O error when the file is missing (no daemon has run
/// against this data dir) or unreadable.
pub fn read_endpoint(data_dir: &Path) -> std::io::Result<String> {
    let text = std::fs::read_to_string(data_dir.join(ENDPOINT_FILE))?;
    Ok(text.trim().to_string())
}

/// One blocking connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `host:port`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.writer.write_all(request.encode().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads one reply line and enforces the `ok` contract.
    fn read_reply(&mut self) -> Result<JsonValue, ClientError> {
        let line = self.read_line()?;
        let value = JsonValue::parse(&line)
            .map_err(|err| ClientError::Protocol(format!("unparseable reply: {err}")))?;
        match value.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(value),
            Some(false) => Err(ClientError::Server(
                value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            )),
            None => Err(ClientError::Protocol(format!(
                "reply has no 'ok' field: {line}"
            ))),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<JsonValue, ClientError> {
        self.send(request)?;
        self.read_reply()
    }

    /// Probes the daemon; returns `(server name, protocol version)`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn ping(&mut self) -> Result<(String, i64), ClientError> {
        let reply = self.roundtrip(&Request::Ping)?;
        let server = reply
            .get("server")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ClientError::Protocol("ping reply has no 'server'".to_string()))?
            .to_string();
        let version = reply
            .get("version")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| ClientError::Protocol("ping reply has no 'version'".to_string()))?;
        Ok((server, version))
    }

    /// Submits a run- or sweep-spec document; returns one summary per
    /// registered job (a sweep registers one job per cell).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the document is rejected; `Io` /
    /// `Protocol` on transport problems.
    pub fn submit(&mut self, spec_text: &str) -> Result<Vec<JobSummary>, ClientError> {
        let reply = self.roundtrip(&Request::Submit {
            spec_text: spec_text.to_string(),
        })?;
        reply
            .get("jobs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ClientError::Protocol("submit reply has no 'jobs'".to_string()))?
            .iter()
            .map(|job| JobSummary::from_json(job).map_err(ClientError::Protocol))
            .collect()
    }

    /// Fetches executor health plus every job.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn status(&mut self) -> Result<StatusSnapshot, ClientError> {
        let reply = self.roundtrip(&Request::Status)?;
        StatusSnapshot::from_json(&reply).map_err(ClientError::Protocol)
    }

    /// Fetches the daemon's live telemetry snapshot as a
    /// `pathway-profile` JSON document (the object itself, not a rendered
    /// string) — the same schema `pathway run --profile-out` writes, with
    /// `source` `"serve"`. Read and check it with
    /// [`pathway_core::obs::Profile::from_json`].
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        let reply = self.roundtrip(&Request::Metrics)?;
        reply
            .get("profile")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics reply has no 'profile'".to_string()))
    }

    /// Cancels a job; returns its post-cancellation summary.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job does not exist.
    pub fn cancel(&mut self, job: &str) -> Result<JobSummary, ClientError> {
        let reply = self.roundtrip(&Request::Cancel {
            job: job.to_string(),
        })?;
        JobSummary::from_json(&reply).map_err(ClientError::Protocol)
    }

    /// Fetches a job's front in the `pathway-front v1` rendering —
    /// byte-identical to a `pathway run --front-out` file for completed
    /// jobs, a live snapshot for running ones.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job does not exist or is
    /// cancelled/failed.
    pub fn fetch_front(&mut self, job: &str) -> Result<(JobSummary, String), ClientError> {
        let reply = self.roundtrip(&Request::FetchFront {
            job: job.to_string(),
        })?;
        let summary = JobSummary::from_json(&reply).map_err(ClientError::Protocol)?;
        let front = reply
            .get("front")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ClientError::Protocol("fetch-front reply has no 'front'".to_string()))?
            .to_string();
        Ok((summary, front))
    }

    /// Streams a job's telemetry: `on_event` sees every
    /// [`WatchEvent::Generation`] in order; the returned event is the
    /// stream's final [`WatchEvent::End`]. For an already-terminal job the
    /// stream ends immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job does not exist; `Io` /
    /// `Protocol` on transport problems.
    pub fn watch(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&WatchEvent),
    ) -> Result<WatchEvent, ClientError> {
        self.send(&Request::Watch {
            job: job.to_string(),
        })?;
        // The ack is an ordinary ok/error reply; the stream follows it.
        self.read_reply()?;
        loop {
            let line = self.read_line()?;
            let event = WatchEvent::parse(&line).map_err(ClientError::Protocol)?;
            if matches!(event, WatchEvent::End { .. }) {
                return Ok(event);
            }
            on_event(&event);
        }
    }

    /// Asks the daemon to checkpoint every running job and exit.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Shutdown)?;
        Ok(())
    }
}
