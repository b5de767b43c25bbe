//! The `pathway serve` wire protocol: typed requests, replies, and
//! telemetry events over line-delimited JSON, each described once.
//!
//! # Framing
//!
//! Every message is one compact JSON document
//! ([`JsonValue::to_compact`]) followed by `\n`. Compact rendering escapes
//! every control character, so a message never contains a literal newline
//! — the frame boundary is unambiguous. Requests carry a `cmd` field;
//! replies lead with `ok` (`true`/`false`, with `error` holding the
//! message on failure); streamed telemetry lines carry `event` instead.
//!
//! # Messages
//!
//! Each message has one description here: a row of the request table, or
//! a `jsonlite` field table. The daemon renders a reply and the client
//! reads it back through the same table (`encode_reply`, `parse_reply`),
//! so neither spells a key of its own.
//!
//! | `cmd`         | fields | reply body, after `"ok":true`                  | type |
//! |---------------|--------|------------------------------------------------|------|
//! | `ping`        | —      | `server, version`                              | [`Pong`] |
//! | `submit`      | `spec` | `jobs: [job summary…]`                         | `Submitted` |
//! | `status`      | —      | `executor: {workers, queued_chunks, active_workers}, jobs` | [`StatusSnapshot`] |
//! | `metrics`     | —      | `profile` (a `pathway-profile` document)       | `Metrics` |
//! | `watch`       | `job`  | `job, state`, then `event` lines               | `Watching`, [`WatchEvent`] |
//! | `cancel`      | `job`  | the job summary's fields                       | [`JobSummary`] |
//! | `fetch-front` | `job`  | the job summary's fields, `front`              | `(JobSummary, Front)` |
//! | `shutdown`    | —      | nothing                                        | `()` |
//!
//! A failed request is answered `{"ok":false,"error":…}`.
//! `submit`'s `spec` is the canonical run-spec text (`pathway-spec v1`) or
//! sweep text (`pathway-sweep v1`); a sweep expands into one job per cell.
//! A `watch` reply is followed by zero or more
//! `{"event":"generation",…}` lines and exactly one `{"event":"end",…}`
//! line, after which the connection is ready for the next request.

use pathway_core::field;
use pathway_core::jsonlite::{
    int, read_record, write_record, Field, Fields, JsonValue, Kind, COUNT, FINITE, SIZE, TEXT,
};
use pathway_core::obs::{Profile, PROFILE};
use pathway_moo::ExecutorStats;

/// Wire protocol version, reported by `ping`.
pub const PROTOCOL_VERSION: u64 = 1;

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

/// A request's `cmd`, the key of the string field it carries, and how it
/// is built from that field.
type RequestRow = (&'static str, Option<&'static str>, fn(String) -> Request);

/// Every request.
static REQUESTS: [RequestRow; 8] = [
    ("ping", None, |_| Request::Ping),
    ("submit", Some("spec"), |spec_text| Request::Submit {
        spec_text,
    }),
    ("status", None, |_| Request::Status),
    ("metrics", None, |_| Request::Metrics),
    ("watch", Some("job"), |job| Request::Watch { job }),
    ("cancel", Some("job"), |job| Request::Cancel { job }),
    ("fetch-front", Some("job"), |job| Request::FetchFront {
        job,
    }),
    ("shutdown", None, |_| Request::Shutdown),
];

impl Request {
    /// The string field the request carries, if any.
    fn argument(&self) -> Option<&str> {
        match self {
            Request::Submit { spec_text } => Some(spec_text),
            Request::Watch { job } | Request::Cancel { job } | Request::FetchFront { job } => {
                Some(job)
            }
            Request::Ping | Request::Status | Request::Metrics | Request::Shutdown => None,
        }
    }

    /// Renders the request as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        // A request's row is the one whose builder makes the same variant.
        let variant = std::mem::discriminant(self);
        let (cmd, key, _) = REQUESTS
            .iter()
            .find(|(_, _, build)| std::mem::discriminant(&build(String::new())) == variant)
            .expect("every request has a row");
        let mut object = vec![("cmd".to_string(), JsonValue::string(*cmd))];
        if let (Some(key), Some(argument)) = (key, self.argument()) {
            object.push((key.to_string(), JsonValue::string(argument)));
        }
        JsonValue::Object(object).to_compact()
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
        let (_, key, build) = REQUESTS
            .iter()
            .find(|(name, ..)| *name == cmd)
            .ok_or_else(|| format!("unknown command '{cmd}'"))?;
        let argument = match key {
            Some(key) => value
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("'{cmd}' needs a string '{key}' field"))?,
            None => "",
        };
        Ok(build(argument.to_string()))
    }
}

/// Lifecycle state of a scheduled job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobState {
    /// Scheduled; advances one generation per scheduling turn.
    #[default]
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
}

/// A job state, in its wire spelling.
const JOB_STATE: Kind<JobState> = Kind {
    expected: "a job state (running, completed, cancelled or failed)",
    write: |state| JsonValue::string(state.as_str()),
    read: |value| {
        use JobState::*;
        let name = value.as_str()?;
        [Running, Completed, Cancelled, Failed]
            .into_iter()
            .find(|state| state.as_str() == name)
    },
};

/// Every problem of a message, joined into one line.
fn joined(problems: Vec<String>) -> String {
    problems.join("; ")
}

/// One job's row in a `status` or `submit` reply, and the body of a
/// `cancel` reply and of the first part of a `fetch-front` one.
#[derive(Debug, Clone, Default, PartialEq)]
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

static JOB_SUMMARY: [Field<JobSummary>; 11] = [
    field!("job": TEXT => id),
    field!("state": JOB_STATE => state),
    Field {
        key: "error",
        write: |summary| summary.error.as_ref().map(TEXT.write),
        read: Some(|summary, fields, key| summary.error = fields.optional(key, TEXT)),
    },
    field!("problem": TEXT => problem),
    field!("optimizer": TEXT => optimizer),
    field!("spec_hash": TEXT => spec_hash),
    field!("generation": SIZE => generation),
    field!("max_generations": SIZE => max_generations),
    field!("evaluations": SIZE => evaluations),
    field!("front_size": SIZE => front_size),
    field!("watchers": SIZE => watchers),
];

/// A `ping` reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pong {
    /// The daemon's name, [`SERVER_NAME`].
    pub server: String,
    /// Its protocol version, [`PROTOCOL_VERSION`].
    pub version: u64,
}

static PONG: [Field<Pong>; 2] = [
    field!("server": TEXT => server),
    field!("version": COUNT => version),
];

/// A `submit` reply: one summary per registered job.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Submitted {
    /// The jobs, one per sweep cell (one for a run spec).
    pub jobs: Vec<JobSummary>,
}

static SUBMITTED: [Field<Submitted>; 1] = [field!("jobs": [JOB_SUMMARY] => jobs)];

/// A `status` reply: the executor's live gauges plus every job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusSnapshot {
    /// The shared executor's load, sampled when the reply was built.
    pub executor: ExecutorStats,
    /// Every job the daemon knows about, in submission order.
    pub jobs: Vec<JobSummary>,
}

static STATUS: [Field<StatusSnapshot>; 2] = [
    Field {
        key: "executor",
        write: |status| Some(write_record(&status.executor, &EXECUTOR)),
        read: Some(|status, fields, key| status.executor = fields.nested(key, &EXECUTOR)),
    },
    field!("jobs": [JOB_SUMMARY] => jobs),
];

static EXECUTOR: [Field<ExecutorStats>; 3] = [
    field!("workers": SIZE => workers),
    field!("queued_chunks": SIZE => queued_chunks),
    field!("active_workers": SIZE => active_workers),
];

/// A `metrics` reply: the daemon's live telemetry, with `source` `"serve"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Metrics {
    /// The `pathway-profile` document, checked on reading.
    pub profile: Profile,
}

static METRICS: [Field<Metrics>; 1] = [Field {
    key: "profile",
    write: |metrics| Some(metrics.profile.to_json()),
    read: Some(|metrics, fields, key| metrics.profile = fields.nested(key, &PROFILE)),
}];

/// A `watch` acknowledgement: the job and its state when the stream opened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Watching {
    /// Watched job id.
    pub job: String,
    /// Its state at attach time.
    pub state: JobState,
}

static WATCHING: [Field<Watching>; 2] = [
    field!("job": TEXT => job),
    field!("state": JOB_STATE => state),
];

/// The second part of a `fetch-front` reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Front {
    /// The front in `pathway-front v1` rendering.
    pub text: String,
}

static FRONT: [Field<Front>; 1] = [field!("front": TEXT => text)];

static NOTHING: [Field<()>; 0] = [];

/// The body of a successful reply: the fields after `"ok":true`, written
/// and read through the body's field tables.
pub(crate) trait Reply: Sized {
    /// Appends the body's fields to a reply object.
    fn write(&self, object: &mut Vec<(String, JsonValue)>);
    /// Reads the body out of a reply object.
    fn read(fields: &mut Fields<'_>) -> Self;
}

macro_rules! replies {
    ($($body:ty: $table:ident),* $(,)?) => {$(
        impl Reply for $body {
            fn write(&self, object: &mut Vec<(String, JsonValue)>) {
                if let JsonValue::Object(fields) = write_record(self, &$table) {
                    object.extend(fields);
                }
            }

            fn read(fields: &mut Fields<'_>) -> Self {
                fields.record(&$table)
            }
        }
    )*};
}

replies!(
    Pong: PONG,
    Submitted: SUBMITTED,
    StatusSnapshot: STATUS,
    Metrics: METRICS,
    Watching: WATCHING,
    JobSummary: JOB_SUMMARY,
    Front: FRONT,
    (): NOTHING,
);

/// Two bodies side by side, such as `fetch-front`'s summary and front.
impl<A: Reply, B: Reply> Reply for (A, B) {
    fn write(&self, object: &mut Vec<(String, JsonValue)>) {
        self.0.write(object);
        self.1.write(object);
    }

    fn read(fields: &mut Fields<'_>) -> Self {
        (A::read(fields), B::read(fields))
    }
}

/// Renders one reply line (no trailing newline): `{"ok":true,…}` with the
/// body's fields, or `{"ok":false,"error":…}`.
pub(crate) fn encode_reply<T: Reply>(reply: &Result<T, String>) -> String {
    let mut object = vec![("ok".to_string(), JsonValue::Bool(reply.is_ok()))];
    match reply {
        Ok(body) => body.write(&mut object),
        Err(message) => object.push(("error".to_string(), JsonValue::string(message.as_str()))),
    }
    JsonValue::Object(object).to_compact()
}

/// Reads one reply line: `Ok` with the body of an `ok` reply, `Err` with
/// the `error` of a failed one.
///
/// # Errors
///
/// Why the line is no reply of this shape, naming every missing or
/// mistyped field.
pub(crate) fn parse_reply<T: Reply>(line: &str) -> Result<Result<T, String>, String> {
    let value = JsonValue::parse(line).map_err(|err| format!("unparseable reply: {err}"))?;
    let mut fields = Fields::new(&value);
    let reply = match value.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(T::read(&mut fields)),
        Some(false) => Err(fields.get("error", TEXT)),
        None => return Err(format!("reply has no 'ok' field: {line}")),
    };
    fields.finish(reply).map_err(joined)
}

/// A completed generation of a watched job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenerationEvent {
    /// Watched job id.
    pub job: String,
    /// 1-based generation index.
    pub generation: usize,
    /// Cumulative evaluations.
    pub evaluations: usize,
    /// Current front size.
    pub front_size: usize,
    /// Wall-clock of this generation, microseconds (0 when the server
    /// predates the field).
    pub duration_us: u64,
    /// Current hypervolume (absent on the wire when NaN).
    pub hypervolume: f64,
}

static GENERATION_EVENT: [Field<GenerationEvent>; 7] = [
    field!("event" = |_| JsonValue::string("generation")),
    field!("job": TEXT => job),
    field!("generation": SIZE => generation),
    field!("evaluations": SIZE => evaluations),
    field!("front_size": SIZE => front_size),
    Field {
        key: "duration_us",
        write: |event| Some(int(event.duration_us)),
        // Absent from pre-telemetry servers; 0 means "unreported".
        read: Some(|event, fields, key| {
            event.duration_us = fields.optional(key, COUNT).unwrap_or_default();
        }),
    },
    Field {
        key: "hypervolume",
        // JSON has no NaN literal; an unmeasurable hypervolume is absent.
        write: |event| {
            (!event.hypervolume.is_nan()).then_some(JsonValue::Number(event.hypervolume))
        },
        read: Some(|event, fields, key| {
            event.hypervolume = fields.optional(key, FINITE).unwrap_or(f64::NAN);
        }),
    },
];

/// The end of a watch stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndEvent {
    /// Watched job id.
    pub job: String,
    /// The job's state when the stream closed.
    pub state: JobState,
    /// Generations completed when the stream closed.
    pub generation: usize,
}

static END_EVENT: [Field<EndEvent>; 4] = [
    field!("event" = |_| JsonValue::string("end")),
    field!("job": TEXT => job),
    field!("state": JOB_STATE => state),
    field!("generation": SIZE => generation),
];

/// One line of a `watch` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchEvent {
    /// A completed generation of the watched job.
    Generation(GenerationEvent),
    /// The stream is over.
    End(EndEvent),
}

impl WatchEvent {
    /// Renders the event as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            WatchEvent::Generation(event) => write_record(event, &GENERATION_EVENT),
            WatchEvent::End(event) => write_record(event, &END_EVENT),
        };
        value.to_compact()
    }

    /// Parses one stream line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part, every mistyped field by its
    /// path.
    pub fn parse(line: &str) -> Result<WatchEvent, String> {
        let value = JsonValue::parse(line).map_err(|err| format!("malformed event: {err}"))?;
        let event = match value.get("event").and_then(JsonValue::as_str) {
            Some("generation") => {
                read_record(&value, &GENERATION_EVENT).map(WatchEvent::Generation)
            }
            Some("end") => read_record(&value, &END_EVENT).map(WatchEvent::End),
            Some(other) => return Err(format!("unknown event '{other}'")),
            None => return Err("stream line has no string 'event' field".to_string()),
        };
        event.map_err(joined)
    }
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

    /// `body` rendered as an `ok` reply line and read back.
    fn round_trip<T: Reply>(body: T) -> T {
        parse_reply(&encode_reply(&Ok(body))).unwrap().unwrap()
    }

    #[test]
    fn job_summaries_and_status_snapshots_round_trip() {
        for state in [
            JobState::Running,
            JobState::Completed,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(round_trip(summary(state)), summary(state));
        }

        let snapshot = StatusSnapshot {
            executor: ExecutorStats {
                workers: 4,
                queued_chunks: 3,
                active_workers: 2,
            },
            jobs: vec![summary(JobState::Running), summary(JobState::Completed)],
        };
        assert_eq!(round_trip(snapshot.clone()), snapshot);

        let front = Front {
            text: "pathway-front v1\n1 2\n".to_string(),
        };
        let fetched = (summary(JobState::Completed), front);
        assert_eq!(round_trip(fetched.clone()), fetched);

        // A mistyped field of a reply is named by its path.
        let line = r#"{"ok":true,"executor":{"workers":-1,"queued_chunks":0,"active_workers":0},"jobs":[]}"#;
        assert_eq!(
            parse_reply::<StatusSnapshot>(line).unwrap_err(),
            "'executor.workers': expected a non-negative integer"
        );
    }

    #[test]
    fn watch_events_round_trip_including_nan_hypervolume() {
        let generation = WatchEvent::Generation(GenerationEvent {
            job: "job-0001".to_string(),
            generation: 3,
            evaluations: 300,
            front_size: 12,
            duration_us: 1500,
            hypervolume: 1.25,
        });
        assert_eq!(WatchEvent::parse(&generation.encode()).unwrap(), generation);

        // NaN is absent on the wire and comes back as NaN.
        let nan = WatchEvent::Generation(GenerationEvent {
            job: "job-0001".to_string(),
            generation: 4,
            evaluations: 400,
            front_size: 12,
            duration_us: 0,
            hypervolume: f64::NAN,
        });
        let line = nan.encode();
        assert!(!line.contains("hypervolume"));
        match WatchEvent::parse(&line).unwrap() {
            WatchEvent::Generation(event) => assert!(event.hypervolume.is_nan()),
            other => panic!("unexpected event {other:?}"),
        }

        let end = WatchEvent::End(EndEvent {
            job: "job-0001".to_string(),
            state: JobState::Completed,
            generation: 40,
        });
        assert_eq!(WatchEvent::parse(&end.encode()).unwrap(), end);
    }

    #[test]
    fn generation_events_without_duration_parse_as_zero() {
        // A line from a pre-telemetry server carries no duration_us.
        let legacy = r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12}"#;
        match WatchEvent::parse(legacy).unwrap() {
            WatchEvent::Generation(event) => assert_eq!(event.duration_us, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn mistyped_event_fields_are_named() {
        let head = r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12"#;
        for (tail, problem) in [
            (
                r#","duration_us":-5}"#,
                "'duration_us': expected a non-negative integer",
            ),
            (
                r#","duration_us":0,"hypervolume":"1.25"}"#,
                "'hypervolume': expected a finite number",
            ),
        ] {
            assert_eq!(
                WatchEvent::parse(&format!("{head}{tail}")).unwrap_err(),
                problem
            );
        }
    }

    #[test]
    fn responses_carry_the_ok_flag() {
        let pong = Pong {
            server: SERVER_NAME.to_string(),
            version: PROTOCOL_VERSION,
        };
        let ok = JsonValue::parse(&encode_reply(&Ok(pong))).unwrap();
        assert_eq!(ok.get("ok").and_then(JsonValue::as_bool), Some(true));
        let line = encode_reply::<()>(&Err("no such job".to_string()));
        let err = JsonValue::parse(&line).unwrap();
        assert_eq!(err.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            err.get("error").and_then(JsonValue::as_str),
            Some("no such job")
        );
        assert_eq!(
            parse_reply::<Pong>(&line).unwrap(),
            Err("no such job".into())
        );
    }
}
