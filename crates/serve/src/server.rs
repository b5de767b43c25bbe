//! The TCP front of the daemon: accept loop, connection handlers, and the
//! bridge between socket lines and scheduler [`Command`]s.
//!
//! # Threading model
//!
//! Three kinds of thread, none of which ever blocks on a job:
//!
//! * **the scheduler thread** runs [`Scheduler::run`] — all job state
//!   lives there, and every generation of every study is stepped there;
//! * **the accept thread** turns incoming connections into detached
//!   connection threads;
//! * **connection threads** parse request lines, ship [`Command`]s to the
//!   scheduler, and write replies. They block only on their own socket
//!   and on per-command reply channels, both of which the scheduler
//!   services between generation steps.
//!
//! `status` replies are assembled on the connection thread so the
//! [`pathway_moo::ExecutorStats`] gauges are read *live* — the scheduler
//! thread only observes the pool between turns, when it is always idle.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pathway_core::obs::Profile;
use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::duration_us;
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::Executor;

use crate::scheduler::{Command, Scheduler};
use crate::wire::{
    encode_reply, EndEvent, Front, GenerationEvent, JobState, JobSummary, Metrics, Pong, Reply,
    Request, StatusSnapshot, Submitted, WatchEvent, Watching, PROTOCOL_VERSION, SERVER_NAME,
};

/// Name of the file under the data dir holding the daemon's live
/// `host:port`, written on startup. Clients resolve a data dir to an
/// address through it (see [`crate::client::read_endpoint`]).
pub const ENDPOINT_FILE: &str = "endpoint";

/// Everything needed to start a daemon.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub listen: String,
    /// Daemon data directory; jobs live in `<data_dir>/jobs/`.
    pub data_dir: PathBuf,
    /// The shared evaluation executor every job schedules onto.
    pub executor: Arc<Executor>,
    /// Suppress the startup line on stderr.
    pub quiet: bool,
}

/// A running daemon: bound socket, scheduler thread, accept thread.
pub struct Server {
    addr: SocketAddr,
    scheduler_thread: JoinHandle<()>,
    accept_thread: JoinHandle<()>,
    shutting_down: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener, restores the scheduler from the data dir
    /// (resuming every in-flight job), records the live address in the
    /// data dir's [`ENDPOINT_FILE`], and starts serving.
    ///
    /// # Errors
    ///
    /// A message when the address cannot be bound, the data dir cannot be
    /// created or scanned, or the endpoint file cannot be written.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|err| format!("cannot bind {}: {err}", config.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|err| format!("cannot read bound address: {err}"))?;
        let scheduler = Scheduler::open(&config.data_dir, Arc::clone(&config.executor))?;
        let endpoint = config.data_dir.join(ENDPOINT_FILE);
        atomic_write(&endpoint, format!("{addr}\n").as_bytes())
            .map_err(|err| format!("cannot write {}: {err}", endpoint.display()))?;
        if !config.quiet {
            eprintln!(
                "pathway serve: listening on {addr}, data dir {}",
                config.data_dir.display()
            );
        }

        // Cloned before the scheduler thread takes the scheduler: registry
        // shards are shared, so connection threads snapshot live telemetry
        // without a scheduler round-trip.
        let telemetry = Arc::new(ConnectionTelemetry {
            metrics: scheduler.metrics().clone(),
            label: config.data_dir.display().to_string(),
            started: Instant::now(),
        });
        let (commands, command_rx) = channel::<Command>();
        let scheduler_thread = std::thread::spawn(move || scheduler.run(command_rx));

        let shutting_down = Arc::new(AtomicBool::new(false));
        let accept_flag = Arc::clone(&shutting_down);
        let executor = Arc::clone(&config.executor);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let commands = commands.clone();
                let executor = Arc::clone(&executor);
                let telemetry = Arc::clone(&telemetry);
                std::thread::spawn(move || {
                    handle_connection(stream, commands, executor, telemetry)
                });
            }
            // `commands` drops here; with every connection finished the
            // scheduler loop sees a disconnected channel and exits too.
        });

        Ok(Server {
            addr,
            scheduler_thread,
            accept_thread,
            shutting_down,
        })
    }

    /// The address the daemon actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon shuts down (a client sent `shutdown`), then
    /// tears down the accept loop.
    pub fn join(self) {
        // The scheduler thread returns only after Command::Shutdown has
        // checkpointed every running job.
        let _ = self.scheduler_thread.join();
        self.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }
}

/// What a connection thread needs to answer `metrics` locally: the
/// daemon-wide registry plus the identity fields of the profile document.
struct ConnectionTelemetry {
    metrics: MetricsRegistry,
    label: String,
    started: Instant,
}

impl ConnectionTelemetry {
    /// The live profile, with the totals of `jobs`.
    fn metrics(&self, jobs: &[JobSummary]) -> Metrics {
        let profile = Profile {
            source: "serve".to_string(),
            label: self.label.clone(),
            generations: jobs.iter().map(|job| job.generation as u64).sum(),
            evaluations: jobs.iter().map(|job| job.evaluations as u64).sum(),
            wall_ms: duration_us(self.started.elapsed()) / 1000,
            ..Profile::from_snapshot(&self.metrics.snapshot())
        };
        Metrics { profile }
    }
}

/// Writes one reply line; `false` when the client hung up.
fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    use std::io::Write;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

/// Writes one reply; `false` when the client hung up.
fn answer<T: Reply>(stream: &mut TcpStream, reply: Result<T, String>) -> bool {
    write_line(stream, &encode_reply(&reply))
}

/// One client connection: a sequence of request lines, each answered (or,
/// for `watch`, streamed) before the next is read.
fn handle_connection(
    stream: TcpStream,
    commands: Sender<Command>,
    executor: Arc<Executor>,
    telemetry: Arc<ConnectionTelemetry>,
) {
    use std::io::BufRead;
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let reader = std::io::BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(message) => {
                if !answer::<()>(&mut writer, Err(message)) {
                    return;
                }
                continue;
            }
        };
        let served = match request {
            Request::Ping => {
                let pong = Pong {
                    server: SERVER_NAME.to_string(),
                    version: PROTOCOL_VERSION,
                };
                answer(&mut writer, Ok(pong))
            }
            Request::Submit { spec_text } => {
                let jobs = ask(&commands, |reply| Command::Submit {
                    text: spec_text,
                    reply,
                });
                answer(&mut writer, jobs.flatten().map(|jobs| Submitted { jobs }))
            }
            Request::Status => {
                let jobs = ask(&commands, |reply| Command::Status { reply });
                // Gauges are sampled here, on the connection thread, while
                // jobs are actually being stepped.
                let executor = executor.stats();
                answer(
                    &mut writer,
                    jobs.map(|jobs| StatusSnapshot { executor, jobs }),
                )
            }
            Request::Metrics => {
                // Job totals come from the scheduler; the metric shards
                // themselves are snapshotted right here, live.
                let jobs = ask(&commands, |reply| Command::Status { reply });
                answer(&mut writer, jobs.map(|jobs| telemetry.metrics(&jobs)))
            }
            Request::Watch { job } => stream_watch(&mut writer, &commands, job),
            Request::Cancel { job } => {
                let summary = ask(&commands, |reply| Command::Cancel { job, reply });
                answer(&mut writer, summary.flatten())
            }
            Request::FetchFront { job } => {
                let fetched = ask(&commands, |reply| Command::FetchFront { job, reply }).flatten();
                answer(
                    &mut writer,
                    fetched.map(|(summary, text)| (summary, Front { text })),
                )
            }
            Request::Shutdown => {
                let (written_tx, written_rx) = channel();
                let acknowledged = ask(&commands, |reply| Command::Shutdown {
                    reply,
                    written: written_rx,
                });
                let acknowledged =
                    acknowledged.map_err(|_| "daemon is already shutting down".to_string());
                answer(&mut writer, acknowledged);
                // The scheduler holds the daemon open until this signal:
                // only now that the reply is on the wire may the process
                // exit. Without the handshake a loaded host could tear the
                // daemon down before this thread got scheduled to write,
                // and the client would see the connection close instead of
                // its acknowledgement.
                let _ = written_tx.send(());
                return;
            }
        };
        if !served {
            return;
        }
    }
}

/// Answers a `watch`: the acknowledgement, one event per generation until
/// the job finishes, then the end event. `false` when the client hung up.
fn stream_watch(writer: &mut TcpStream, commands: &Sender<Command>, job: String) -> bool {
    let watch = ask(commands, |reply| Command::Watch { job, reply });
    let (summary, reports) = match watch.flatten() {
        Ok(watch) => watch,
        Err(message) => return answer::<()>(writer, Err(message)),
    };
    let ack = Watching {
        job: summary.id.clone(),
        state: summary.state,
    };
    if !answer(writer, Ok(ack)) {
        return false;
    }
    let mut generation = summary.generation;
    // Stream until the job finishes (scheduler drops the sender) or the
    // client hangs up (our write fails; the scheduler prunes the dead
    // sender at its next report).
    for report in reports {
        generation = report.generation;
        let event = WatchEvent::Generation(GenerationEvent {
            job: summary.id.clone(),
            generation,
            evaluations: report.evaluations,
            front_size: report.front_size,
            duration_us: duration_us(report.wall_clock),
            hypervolume: report.hypervolume,
        });
        if !write_line(writer, &event.encode()) {
            return false;
        }
    }
    let state = final_state(commands, &summary.id).unwrap_or(summary.state);
    let end = WatchEvent::End(EndEvent {
        job: summary.id,
        state,
        generation,
    });
    write_line(writer, &end.encode())
}

/// Ships one command and waits for its reply; `Err` when the scheduler is
/// gone (the daemon is shutting down).
fn ask<R>(
    commands: &Sender<Command>,
    build: impl FnOnce(Sender<R>) -> Command,
) -> Result<R, String> {
    let (reply_tx, reply_rx) = channel();
    // A failed send drops the command and its reply sender, so the
    // receive below fails at once.
    let _ = commands.send(build(reply_tx));
    reply_rx
        .recv()
        .map_err(|_| "daemon is shutting down".to_string())
}

/// The job's state after its watch stream closed, via a status query.
fn final_state(commands: &Sender<Command>, job: &str) -> Option<JobState> {
    let jobs = ask(commands, |reply| Command::Status { reply }).ok()?;
    jobs.into_iter()
        .find(|summary| summary.id == job)
        .map(|summary| summary.state)
}
