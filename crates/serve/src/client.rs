//! A blocking client for the `pathway serve` wire protocol.
//!
//! One [`Client`] wraps one TCP connection; every method is a synchronous
//! request/reply exchange (plus, for [`Client::watch`], a streamed tail).
//! The `pathway` CLI's client subcommands are thin wrappers around this
//! type, and the integration tests drive daemons through it directly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use pathway_core::obs::Profile;

use crate::server::ENDPOINT_FILE;
use crate::wire::{
    parse_reply, EndEvent, Front, GenerationEvent, JobSummary, Metrics, Pong, Reply, Request,
    StatusSnapshot, Submitted, WatchEvent, Watching,
};

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

    /// Reads one reply line: its body, or the server's error.
    fn read_reply<T: Reply>(&mut self) -> Result<T, ClientError> {
        let line = self.read_line()?;
        parse_reply(&line)
            .map_err(ClientError::Protocol)?
            .map_err(ClientError::Server)
    }

    /// Sends one request and reads its reply's body.
    fn call<T: Reply>(&mut self, request: &Request) -> Result<T, ClientError> {
        self.send(request)?;
        self.read_reply()
    }

    /// Probes the daemon for its name and protocol version.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn ping(&mut self) -> Result<Pong, ClientError> {
        self.call(&Request::Ping)
    }

    /// Submits a run- or sweep-spec document; returns one summary per
    /// registered job (a sweep registers one job per cell).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the document is rejected; `Io` /
    /// `Protocol` on transport problems.
    pub fn submit(&mut self, spec_text: &str) -> Result<Vec<JobSummary>, ClientError> {
        let request = Request::Submit {
            spec_text: spec_text.to_string(),
        };
        self.call(&request)
            .map(|submitted: Submitted| submitted.jobs)
    }

    /// Fetches executor health plus every job.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn status(&mut self) -> Result<StatusSnapshot, ClientError> {
        self.call(&Request::Status)
    }

    /// Fetches the daemon's live telemetry snapshot, a `pathway-profile`
    /// document with `source` `"serve"` — the same schema
    /// `pathway run --profile-out` writes — read and checked on receipt.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant; `Protocol` names every field of the
    /// profile that does not check.
    pub fn metrics(&mut self) -> Result<Profile, ClientError> {
        self.call(&Request::Metrics)
            .map(|metrics: Metrics| metrics.profile)
    }

    /// Cancels a job; returns its post-cancellation summary.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job does not exist.
    pub fn cancel(&mut self, job: &str) -> Result<JobSummary, ClientError> {
        self.call(&Request::Cancel {
            job: job.to_string(),
        })
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
        let request = Request::FetchFront {
            job: job.to_string(),
        };
        let (summary, front): (JobSummary, Front) = self.call(&request)?;
        Ok((summary, front.text))
    }

    /// Streams a job's telemetry: `on_event` sees every generation in
    /// order, and the stream's end is returned. For an already-terminal
    /// job the stream ends immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job does not exist; `Io` /
    /// `Protocol` on transport problems.
    pub fn watch(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&GenerationEvent),
    ) -> Result<EndEvent, ClientError> {
        self.send(&Request::Watch {
            job: job.to_string(),
        })?;
        // The ack is an ordinary ok/error reply; the stream follows it.
        self.read_reply::<Watching>()?;
        loop {
            let line = self.read_line()?;
            match WatchEvent::parse(&line).map_err(ClientError::Protocol)? {
                WatchEvent::Generation(event) => on_event(&event),
                WatchEvent::End(end) => return Ok(end),
            }
        }
    }

    /// Asks the daemon to checkpoint every running job and exit.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown)
    }
}
