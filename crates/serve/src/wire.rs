//! The `pathway serve` wire protocol: typed requests, responses, and
//! telemetry events over line-delimited JSON.
//!
//! # Framing
//!
//! Every message is one compact JSON document
//! ([`JsonValue::to_compact`]) followed by `\n`. Compact rendering escapes
//! every control character, so a message never contains a literal newline
//! — the frame boundary is unambiguous. Requests carry a `cmd` field;
//! responses carry `ok` (`true`/`false`, with `error` holding the message
//! on failure); streamed telemetry lines carry `event` instead of `ok`.
//!
//! # Commands
//!
//! | `cmd`         | fields        | reply                                         |
//! |---------------|---------------|-----------------------------------------------|
//! | `ping`        | —             | `{ok, server, version}`                       |
//! | `submit`      | `spec`        | `{ok, jobs: [job summary…]}`                  |
//! | `status`      | —             | `{ok, executor: {…}, jobs: [job summary…]}`   |
//! | `metrics`     | —             | `{ok, profile: {…}}` (a `pathway-profile` doc)|
//! | `watch`       | `job`         | `{ok, job, state}` then `event` lines         |
//! | `cancel`      | `job`         | `{ok, job summary}`                           |
//! | `fetch-front` | `job`         | `{ok, job summary, front}`                    |
//! | `shutdown`    | —             | `{ok}`                                        |
//!
//! `submit`'s `spec` is the canonical run-spec text (`pathway-spec v1`) or
//! sweep text (`pathway-sweep v1`); a sweep expands into one job per cell.
//! A `watch` reply is followed by zero or more
//! `{"event":"generation",…}` lines and exactly one `{"event":"end",…}`
//! line, after which the connection is ready for the next request.

use pathway_core::jsonlite::JsonValue;

/// Wire protocol version, reported by `ping`.
pub const PROTOCOL_VERSION: i64 = 1;

/// Server identifier, reported by `ping`.
pub const SERVER_NAME: &str = "pathway-serve";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Submit a run- or sweep-spec document for scheduling.
    Submit {
        /// Canonical `pathway-spec v1` or `pathway-sweep v1` text.
        spec_text: String,
    },
    /// Snapshot of every job plus executor health.
    Status,
    /// Live telemetry snapshot as a `pathway-profile` document.
    Metrics,
    /// Stream per-generation telemetry for one job.
    Watch {
        /// Job id, e.g. `job-0001`.
        job: String,
    },
    /// Cancel one job (terminal; its checkpoints remain on disk).
    Cancel {
        /// Job id.
        job: String,
    },
    /// Fetch a job's Pareto front in `pathway-front v1` rendering.
    FetchFront {
        /// Job id.
        job: String,
    },
    /// Checkpoint every running job and stop the daemon.
    Shutdown,
}

impl Request {
    /// Renders the request as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Request::Ping => JsonValue::object([("cmd", JsonValue::string("ping"))]),
            Request::Submit { spec_text } => JsonValue::object([
                ("cmd", JsonValue::string("submit")),
                ("spec", JsonValue::string(spec_text.clone())),
            ]),
            Request::Status => JsonValue::object([("cmd", JsonValue::string("status"))]),
            Request::Metrics => JsonValue::object([("cmd", JsonValue::string("metrics"))]),
            Request::Watch { job } => JsonValue::object([
                ("cmd", JsonValue::string("watch")),
                ("job", JsonValue::string(job.clone())),
            ]),
            Request::Cancel { job } => JsonValue::object([
                ("cmd", JsonValue::string("cancel")),
                ("job", JsonValue::string(job.clone())),
            ]),
            Request::FetchFront { job } => JsonValue::object([
                ("cmd", JsonValue::string("fetch-front")),
                ("job", JsonValue::string(job.clone())),
            ]),
            Request::Shutdown => JsonValue::object([("cmd", JsonValue::string("shutdown"))]),
        };
        value.to_compact()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message (sent back verbatim as the `error` field)
    /// when the line is not valid JSON, has no `cmd`, names an unknown
    /// command, or is missing a required field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = JsonValue::parse(line).map_err(|err| format!("malformed request: {err}"))?;
        let cmd = value
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "request has no string 'cmd' field".to_string())?;
        let job = |value: &JsonValue| -> Result<String, String> {
            value
                .get("job")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{cmd}' needs a string 'job' field"))
        };
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec_text = value
                    .get("spec")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "'submit' needs a string 'spec' field".to_string())?
                    .to_string();
                Ok(Request::Submit { spec_text })
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "watch" => Ok(Request::Watch { job: job(&value)? }),
            "cancel" => Ok(Request::Cancel { job: job(&value)? }),
            "fetch-front" => Ok(Request::FetchFront { job: job(&value)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// Lifecycle state of a scheduled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Scheduled; advances one generation per scheduling turn.
    Running,
    /// Finished; its final front is durable under the data dir.
    Completed,
    /// Cancelled by a client; terminal.
    Cancelled,
    /// Died (step panic, checkpoint write failure, restore error); terminal.
    Failed,
}

impl JobState {
    /// The wire spelling, e.g. `running`.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses the wire spelling (inverse of [`JobState::as_str`]).
    pub fn parse(text: &str) -> Option<JobState> {
        match text {
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "cancelled" => Some(JobState::Cancelled),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// One job's row in a `status` reply (and the job-shaped part of `submit`,
/// `cancel`, and `fetch-front` replies).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Job id, e.g. `job-0001`.
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Failure message, for [`JobState::Failed`] jobs.
    pub error: Option<String>,
    /// Problem name from the job's spec.
    pub problem: String,
    /// Optimizer kind from the job's spec (`nsga2`, `moead`, `archipelago`).
    pub optimizer: String,
    /// The spec's content hash, `0x`-prefixed hex.
    pub spec_hash: String,
    /// Generations completed so far.
    pub generation: usize,
    /// The spec's generation budget (0 = unbounded).
    pub max_generations: usize,
    /// Cumulative candidate evaluations.
    pub evaluations: usize,
    /// Size of the latest known non-dominated front.
    pub front_size: usize,
    /// Telemetry streams currently attached via `watch`.
    pub watchers: usize,
}

impl JobSummary {
    /// The JSON object shape shared by every job-carrying reply.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("job".to_string(), JsonValue::string(self.id.clone())),
            ("state".to_string(), JsonValue::string(self.state.as_str())),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), JsonValue::string(error.clone())));
        }
        fields.extend([
            (
                "problem".to_string(),
                JsonValue::string(self.problem.clone()),
            ),
            (
                "optimizer".to_string(),
                JsonValue::string(self.optimizer.clone()),
            ),
            (
                "spec_hash".to_string(),
                JsonValue::string(self.spec_hash.clone()),
            ),
            ("generation".to_string(), int(self.generation)),
            ("max_generations".to_string(), int(self.max_generations)),
            ("evaluations".to_string(), int(self.evaluations)),
            ("front_size".to_string(), int(self.front_size)),
            ("watchers".to_string(), int(self.watchers)),
        ]);
        JsonValue::Object(fields)
    }

    /// Parses the object shape [`JobSummary::to_json`] produces.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<JobSummary, String> {
        let state_text = required_str(value, "state")?;
        let state = JobState::parse(&state_text)
            .ok_or_else(|| format!("unknown job state '{state_text}'"))?;
        Ok(JobSummary {
            id: required_str(value, "job")?,
            state,
            error: value
                .get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            problem: required_str(value, "problem")?,
            optimizer: required_str(value, "optimizer")?,
            spec_hash: required_str(value, "spec_hash")?,
            generation: required_usize(value, "generation")?,
            max_generations: required_usize(value, "max_generations")?,
            evaluations: required_usize(value, "evaluations")?,
            front_size: required_usize(value, "front_size")?,
            watchers: required_usize(value, "watchers")?,
        })
    }
}

/// Executor health in a `status` reply — the live
/// [`pathway_moo::ExecutorStats`] snapshot taken when the reply is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorHealth {
    /// Configured parallelism (caller lane included).
    pub workers: usize,
    /// Chunks waiting in the pool queue at snapshot time.
    pub queued_chunks: usize,
    /// Lanes executing a chunk at snapshot time.
    pub active_workers: usize,
}

impl ExecutorHealth {
    /// The `executor` object of a `status` reply.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", int(self.workers)),
            ("queued_chunks", int(self.queued_chunks)),
            ("active_workers", int(self.active_workers)),
        ])
    }

    /// Parses the object [`ExecutorHealth::to_json`] produces.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<ExecutorHealth, String> {
        Ok(ExecutorHealth {
            workers: required_usize(value, "workers")?,
            queued_chunks: required_usize(value, "queued_chunks")?,
            active_workers: required_usize(value, "active_workers")?,
        })
    }
}

/// A full `status` reply: executor health plus every job.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Live executor load.
    pub executor: ExecutorHealth,
    /// Every job the daemon knows about, in submission order.
    pub jobs: Vec<JobSummary>,
}

impl StatusSnapshot {
    /// The reply body (an `ok` response with `executor` and `jobs`).
    pub fn to_json(&self) -> JsonValue {
        ok_response([
            ("executor".to_string(), self.executor.to_json()),
            (
                "jobs".to_string(),
                JsonValue::Array(self.jobs.iter().map(JobSummary::to_json).collect()),
            ),
        ])
    }

    /// Parses the reply [`StatusSnapshot::to_json`] produces.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<StatusSnapshot, String> {
        let executor = ExecutorHealth::from_json(
            value
                .get("executor")
                .ok_or_else(|| "status reply has no 'executor'".to_string())?,
        )?;
        let jobs = value
            .get("jobs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "status reply has no 'jobs' array".to_string())?
            .iter()
            .map(JobSummary::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StatusSnapshot { executor, jobs })
    }
}

/// One line of a `watch` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchEvent {
    /// A completed generation of the watched job.
    Generation {
        /// Watched job id.
        job: String,
        /// 1-based generation index.
        generation: usize,
        /// Cumulative evaluations.
        evaluations: usize,
        /// Current front size.
        front_size: usize,
        /// Current hypervolume (absent on the wire when NaN).
        hypervolume: f64,
        /// Wall-clock of this generation, microseconds (0 when the
        /// server predates the field).
        duration_us: u64,
    },
    /// The stream is over; the job reached `state` at `generation`.
    End {
        /// Watched job id.
        job: String,
        /// The job's state when the stream closed.
        state: JobState,
        /// Generations completed when the stream closed.
        generation: usize,
    },
}

impl WatchEvent {
    /// Renders the event as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WatchEvent::Generation {
                job,
                generation,
                evaluations,
                front_size,
                hypervolume,
                duration_us,
            } => {
                let mut fields = vec![
                    ("event".to_string(), JsonValue::string("generation")),
                    ("job".to_string(), JsonValue::string(job.clone())),
                    ("generation".to_string(), int(*generation)),
                    ("evaluations".to_string(), int(*evaluations)),
                    ("front_size".to_string(), int(*front_size)),
                    (
                        "duration_us".to_string(),
                        JsonValue::Int(i64::try_from(*duration_us).unwrap_or(i64::MAX)),
                    ),
                ];
                // JSON has no NaN literal; an unmeasurable hypervolume is
                // simply absent.
                if !hypervolume.is_nan() {
                    fields.push(("hypervolume".to_string(), JsonValue::Number(*hypervolume)));
                }
                JsonValue::Object(fields).to_compact()
            }
            WatchEvent::End {
                job,
                state,
                generation,
            } => JsonValue::object([
                ("event", JsonValue::string("end")),
                ("job", JsonValue::string(job.clone())),
                ("state", JsonValue::string(state.as_str())),
                ("generation", int(*generation)),
            ])
            .to_compact(),
        }
    }

    /// Parses one stream line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse(line: &str) -> Result<WatchEvent, String> {
        let value = JsonValue::parse(line).map_err(|err| format!("malformed event: {err}"))?;
        let event = value
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "stream line has no string 'event' field".to_string())?;
        match event {
            "generation" => Ok(WatchEvent::Generation {
                job: required_str(&value, "job")?,
                generation: required_usize(&value, "generation")?,
                evaluations: required_usize(&value, "evaluations")?,
                front_size: required_usize(&value, "front_size")?,
                hypervolume: value
                    .get("hypervolume")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN),
                // Absent from pre-telemetry servers; 0 means "unreported".
                duration_us: value
                    .get("duration_us")
                    .and_then(JsonValue::as_i64)
                    .and_then(|v| u64::try_from(v).ok())
                    .unwrap_or(0),
            }),
            "end" => {
                let state_text = required_str(&value, "state")?;
                Ok(WatchEvent::End {
                    job: required_str(&value, "job")?,
                    state: JobState::parse(&state_text)
                        .ok_or_else(|| format!("unknown job state '{state_text}'"))?,
                    generation: required_usize(&value, "generation")?,
                })
            }
            other => Err(format!("unknown event '{other}'")),
        }
    }
}

/// Builds a success reply: `{"ok":true, …fields}`.
pub fn ok_response(fields: impl IntoIterator<Item = (String, JsonValue)>) -> JsonValue {
    let mut all = vec![("ok".to_string(), JsonValue::Bool(true))];
    all.extend(fields);
    JsonValue::Object(all)
}

/// Builds a failure reply: `{"ok":false,"error":message}`.
pub fn error_response(message: impl Into<String>) -> JsonValue {
    JsonValue::object([
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::string(message.into())),
    ])
}

fn int(value: usize) -> JsonValue {
    JsonValue::Int(value as i64)
}

fn required_str(value: &JsonValue, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn required_usize(value: &JsonValue, key: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(JsonValue::as_i64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_wire_form() {
        let requests = [
            Request::Ping,
            Request::Submit {
                spec_text: "pathway-spec v1\n[run]\nproblem = schaffer\n".to_string(),
            },
            Request::Status,
            Request::Metrics,
            Request::Watch {
                job: "job-0003".to_string(),
            },
            Request::Cancel {
                job: "job-0001".to_string(),
            },
            Request::FetchFront {
                job: "job-0002".to_string(),
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.encode();
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("{}").unwrap_err().contains("cmd"));
        assert!(Request::parse(r#"{"cmd":"warp"}"#)
            .unwrap_err()
            .contains("unknown command"));
        assert!(Request::parse(r#"{"cmd":"watch"}"#)
            .unwrap_err()
            .contains("job"));
        assert!(Request::parse(r#"{"cmd":"submit"}"#)
            .unwrap_err()
            .contains("spec"));
    }

    fn summary(state: JobState) -> JobSummary {
        JobSummary {
            id: "job-0001".to_string(),
            state,
            error: match state {
                JobState::Failed => Some("step panicked".to_string()),
                _ => None,
            },
            problem: "schaffer".to_string(),
            optimizer: "nsga2".to_string(),
            spec_hash: "0x00000000deadbeef".to_string(),
            generation: 7,
            max_generations: 40,
            evaluations: 1234,
            front_size: 16,
            watchers: 2,
        }
    }

    #[test]
    fn job_summaries_and_status_snapshots_round_trip() {
        for state in [
            JobState::Running,
            JobState::Completed,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            let original = summary(state);
            let reparsed = JobSummary::from_json(&original.to_json()).unwrap();
            assert_eq!(original, reparsed);
        }

        let snapshot = StatusSnapshot {
            executor: ExecutorHealth {
                workers: 4,
                queued_chunks: 3,
                active_workers: 2,
            },
            jobs: vec![summary(JobState::Running), summary(JobState::Completed)],
        };
        let json = snapshot.to_json();
        assert_eq!(json.get("ok").and_then(JsonValue::as_bool), Some(true));
        let reparsed = StatusSnapshot::from_json(&json).unwrap();
        assert_eq!(snapshot, reparsed);
    }

    #[test]
    fn watch_events_round_trip_including_nan_hypervolume() {
        let generation = WatchEvent::Generation {
            job: "job-0001".to_string(),
            generation: 3,
            evaluations: 300,
            front_size: 12,
            hypervolume: 1.25,
            duration_us: 1500,
        };
        assert_eq!(WatchEvent::parse(&generation.encode()).unwrap(), generation);

        // NaN is absent on the wire and comes back as NaN.
        let nan = WatchEvent::Generation {
            job: "job-0001".to_string(),
            generation: 4,
            evaluations: 400,
            front_size: 12,
            hypervolume: f64::NAN,
            duration_us: 0,
        };
        let line = nan.encode();
        assert!(!line.contains("hypervolume"));
        match WatchEvent::parse(&line).unwrap() {
            WatchEvent::Generation { hypervolume, .. } => assert!(hypervolume.is_nan()),
            other => panic!("unexpected event {other:?}"),
        }

        let end = WatchEvent::End {
            job: "job-0001".to_string(),
            state: JobState::Completed,
            generation: 40,
        };
        assert_eq!(WatchEvent::parse(&end.encode()).unwrap(), end);
    }

    #[test]
    fn generation_events_without_duration_parse_as_zero() {
        // A line from a pre-telemetry server carries no duration_us.
        let legacy = r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12}"#;
        match WatchEvent::parse(legacy).unwrap() {
            WatchEvent::Generation { duration_us, .. } => assert_eq!(duration_us, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn responses_carry_the_ok_flag() {
        let ok = ok_response([("server".to_string(), JsonValue::string(SERVER_NAME))]);
        assert_eq!(ok.get("ok").and_then(JsonValue::as_bool), Some(true));
        let err = error_response("no such job");
        assert_eq!(err.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            err.get("error").and_then(JsonValue::as_str),
            Some("no such job")
        );
    }
}
