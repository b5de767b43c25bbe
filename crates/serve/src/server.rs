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
//! [`ExecutorHealth`] gauges are read *live* — the scheduler thread only
//! observes the pool between turns, when it is always idle.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pathway_core::jsonlite::JsonValue;
use pathway_core::obs::Profile;
use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::duration_us;
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::Executor;

use crate::scheduler::{Command, Scheduler};
use crate::wire::{
    error_response, ok_response, ExecutorHealth, JobState, Request, StatusSnapshot, WatchEvent,
    PROTOCOL_VERSION, SERVER_NAME,
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

/// Writes one reply line; `false` when the client hung up.
fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    use std::io::Write;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
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
                if !write_line(&mut writer, &error_response(message).to_compact()) {
                    return;
                }
                continue;
            }
        };
        let served = match request {
            Request::Ping => write_line(
                &mut writer,
                &ok_response([
                    ("server".to_string(), JsonValue::string(SERVER_NAME)),
                    ("version".to_string(), JsonValue::Int(PROTOCOL_VERSION)),
                ])
                .to_compact(),
            ),
            Request::Submit { spec_text } => {
                let reply = ask(&commands, |reply| Command::Submit {
                    text: spec_text,
                    reply,
                });
                let body = match reply {
                    Some(Ok(jobs)) => ok_response([(
                        "jobs".to_string(),
                        JsonValue::Array(jobs.iter().map(|job| job.to_json()).collect()),
                    )]),
                    Some(Err(message)) => error_response(message),
                    None => error_response("daemon is shutting down"),
                };
                write_line(&mut writer, &body.to_compact())
            }
            Request::Status => {
                let body = match ask(&commands, |reply| Command::Status { reply }) {
                    Some(jobs) => {
                        // Gauges are sampled here, on the connection
                        // thread, while jobs are actually being stepped.
                        let stats = executor.stats();
                        StatusSnapshot {
                            executor: ExecutorHealth {
                                workers: stats.workers,
                                queued_chunks: stats.queued_chunks,
                                active_workers: stats.active_workers,
                            },
                            jobs,
                        }
                        .to_json()
                    }
                    None => error_response("daemon is shutting down"),
                };
                write_line(&mut writer, &body.to_compact())
            }
            Request::Metrics => {
                // Job totals come from the scheduler; the metric shards
                // themselves are snapshotted right here, live.
                let body = match ask(&commands, |reply| Command::Status { reply }) {
                    Some(jobs) => {
                        let generations: u64 = jobs.iter().map(|job| job.generation as u64).sum();
                        let evaluations: u64 = jobs.iter().map(|job| job.evaluations as u64).sum();
                        let profile = Profile {
                            source: "serve".to_string(),
                            label: telemetry.label.clone(),
                            generations,
                            evaluations,
                            wall_ms: duration_us(telemetry.started.elapsed()) / 1000,
                            ..Profile::from_snapshot(&telemetry.metrics.snapshot())
                        };
                        ok_response([("profile".to_string(), profile.to_json())])
                    }
                    None => error_response("daemon is shutting down"),
                };
                write_line(&mut writer, &body.to_compact())
            }
            Request::Watch { job } => {
                let reply = ask(&commands, |reply| Command::Watch {
                    job: job.clone(),
                    reply,
                });
                match reply {
                    Some(Ok((summary, reports))) => {
                        let ack = ok_response([
                            ("job".to_string(), JsonValue::string(summary.id.clone())),
                            (
                                "state".to_string(),
                                JsonValue::string(summary.state.as_str()),
                            ),
                        ]);
                        if !write_line(&mut writer, &ack.to_compact()) {
                            return;
                        }
                        let mut last_generation = summary.generation;
                        // Stream until the job finishes (scheduler drops
                        // the sender) or the client hangs up (our write
                        // fails; the scheduler prunes the dead sender at
                        // its next report).
                        let mut client_alive = true;
                        for report in reports {
                            last_generation = report.generation;
                            let event = WatchEvent::Generation {
                                job: summary.id.clone(),
                                generation: report.generation,
                                evaluations: report.evaluations,
                                front_size: report.front_size,
                                hypervolume: report.hypervolume,
                                duration_us: duration_us(report.wall_clock),
                            };
                            if !write_line(&mut writer, &event.encode()) {
                                client_alive = false;
                                break;
                            }
                        }
                        if !client_alive {
                            return;
                        }
                        let state = final_state(&commands, &summary.id).unwrap_or(summary.state);
                        let end = WatchEvent::End {
                            job: summary.id,
                            state,
                            generation: last_generation,
                        };
                        write_line(&mut writer, &end.encode())
                    }
                    Some(Err(message)) => {
                        write_line(&mut writer, &error_response(message).to_compact())
                    }
                    None => write_line(
                        &mut writer,
                        &error_response("daemon is shutting down").to_compact(),
                    ),
                }
            }
            Request::Cancel { job } => {
                let reply = ask(&commands, |reply| Command::Cancel { job, reply });
                let body = match reply {
                    Some(Ok(summary)) => {
                        let JsonValue::Object(fields) = summary.to_json() else {
                            unreachable!("job summaries are objects")
                        };
                        ok_response(fields)
                    }
                    Some(Err(message)) => error_response(message),
                    None => error_response("daemon is shutting down"),
                };
                write_line(&mut writer, &body.to_compact())
            }
            Request::FetchFront { job } => {
                let reply = ask(&commands, |reply| Command::FetchFront { job, reply });
                let body = match reply {
                    Some(Ok((summary, front))) => {
                        let JsonValue::Object(mut fields) = summary.to_json() else {
                            unreachable!("job summaries are objects")
                        };
                        fields.push(("front".to_string(), JsonValue::string(front)));
                        ok_response(fields)
                    }
                    Some(Err(message)) => error_response(message),
                    None => error_response("daemon is shutting down"),
                };
                write_line(&mut writer, &body.to_compact())
            }
            Request::Shutdown => {
                let (written_tx, written_rx) = channel();
                let acknowledged = ask(&commands, |reply| Command::Shutdown {
                    reply,
                    written: written_rx,
                });
                let body = match acknowledged {
                    Some(()) => ok_response([]),
                    None => error_response("daemon is already shutting down"),
                };
                write_line(&mut writer, &body.to_compact());
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

/// Ships one command and waits for its reply. `None` when the scheduler is
/// gone (daemon shutting down).
fn ask<R>(commands: &Sender<Command>, build: impl FnOnce(Sender<R>) -> Command) -> Option<R> {
    let (reply_tx, reply_rx) = channel();
    commands.send(build(reply_tx)).ok()?;
    reply_rx.recv().ok()
}

/// The job's state after its watch stream closed, via a status query.
fn final_state(commands: &Sender<Command>, job: &str) -> Option<JobState> {
    let jobs = ask(commands, |reply| Command::Status { reply })?;
    jobs.into_iter()
        .find(|summary| summary.id == job)
        .map(|summary| summary.state)
}
