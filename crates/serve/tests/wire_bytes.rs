//! The wire protocol's bytes, pinned: the exact compact line of every
//! request, every reply shape and both watch events.
//!
//! Requests and events are pinned through their encoders; replies are
//! pinned as a live daemon sends them, over a raw socket, so the table
//! holds whatever code renders them. A fresh daemon on a serial executor
//! answers deterministically; the only figure read off the line before
//! comparing is the profile's `wall_ms` (the daemon's uptime).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathway_core::jsonlite::JsonValue;
use pathway_moo::Executor;
use pathway_serve::wire::{Request, WatchEvent};
use pathway_serve::{ServeConfig, Server};

const SPEC: &str = "pathway-spec v1\n\n\
                    [problem]\nname = schaffer\n\n\
                    [optimizer]\nkind = nsga2\npopulation = 8\n\n\
                    [run]\nseed = 5\ncheckpoint_every = 0\nreference_point = 25, 25\n\n\
                    [stop]\nmax_generations = 3\n";

/// One connection, read and written a line at a time.
struct Line {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Line {
    fn ask(&mut self, request: &str) -> String {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.next()
    }

    fn next(&mut self) -> String {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "daemon hung up"
        );
        assert!(
            line.ends_with('\n'),
            "every frame ends in a newline: {line:?}"
        );
        line.pop();
        line
    }
}

/// `line` with the number after `"wall_ms":` replaced by 0.
fn without_uptime(line: &str) -> String {
    let (head, tail) = line
        .split_once("\"wall_ms\":")
        .expect("a profile has wall_ms");
    let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
    format!("{head}\"wall_ms\":0{}", &tail[digits..])
}

#[test]
fn every_message_has_its_pinned_line() {
    let requests = [
        (Request::Ping, r#"{"cmd":"ping"}"#),
        (
            Request::Submit {
                spec_text: "pathway-spec v1\n[run]\nseed = 1\n".to_string(),
            },
            r#"{"cmd":"submit","spec":"pathway-spec v1\n[run]\nseed = 1\n"}"#,
        ),
        (Request::Status, r#"{"cmd":"status"}"#),
        (Request::Metrics, r#"{"cmd":"metrics"}"#),
        (
            Request::Watch {
                job: "job-0003".to_string(),
            },
            r#"{"cmd":"watch","job":"job-0003"}"#,
        ),
        (
            Request::Cancel {
                job: "job-0001".to_string(),
            },
            r#"{"cmd":"cancel","job":"job-0001"}"#,
        ),
        (
            Request::FetchFront {
                job: "job-0002".to_string(),
            },
            r#"{"cmd":"fetch-front","job":"job-0002"}"#,
        ),
        (Request::Shutdown, r#"{"cmd":"shutdown"}"#),
    ];
    for (request, line) in requests {
        assert_eq!(request.encode(), line);
        assert_eq!(Request::parse(line).unwrap(), request);
    }

    // Events: (line read, line it renders back as). A NaN hypervolume is
    // absent; a line without duration_us (an older server) reads as 0.
    let events = [
        (
            r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12,"duration_us":1500,"hypervolume":1.25}"#,
            r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12,"duration_us":1500,"hypervolume":1.25}"#,
        ),
        (
            r#"{"event":"generation","job":"job-0001","generation":4,"evaluations":400,"front_size":12,"duration_us":0}"#,
            r#"{"event":"generation","job":"job-0001","generation":4,"evaluations":400,"front_size":12,"duration_us":0}"#,
        ),
        (
            r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12}"#,
            r#"{"event":"generation","job":"job-0001","generation":3,"evaluations":300,"front_size":12,"duration_us":0}"#,
        ),
        (
            r#"{"event":"end","job":"job-0001","state":"completed","generation":40}"#,
            r#"{"event":"end","job":"job-0001","state":"completed","generation":40}"#,
        ),
    ];
    for (line, rendered) in events {
        assert_eq!(WatchEvent::parse(line).unwrap().encode(), rendered);
    }

    let dir: PathBuf = std::env::temp_dir().join(format!("pathway-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        executor: Arc::new(Executor::serial()),
        quiet: true,
    })
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut line = Line {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };

    let label = JsonValue::string(dir.display().to_string()).to_compact();
    let profile = format!(
        r#"{{"ok":true,"profile":{{"format":"pathway-profile","version":1,"source":"serve","label":{label},"generations":0,"evaluations":0,"wall_ms":0,"phases":[],"counters":[],"gauges":[],"histograms":[]}}}}"#
    );
    assert_eq!(without_uptime(&line.ask(r#"{"cmd":"metrics"}"#)), profile);

    let summary = |state: &str, generation: usize, evaluations: usize, front_size: usize| {
        format!(
            r#""job":"job-0001","state":"{state}","problem":"schaffer","optimizer":"nsga2","spec_hash":"0xe922056f98d0ca25","generation":{generation},"max_generations":3,"evaluations":{evaluations},"front_size":{front_size},"watchers":0"#
        )
    };
    let submit = JsonValue::object([
        ("cmd", JsonValue::string("submit")),
        ("spec", JsonValue::string(SPEC)),
    ])
    .to_compact();
    let replies = [
        (
            r#"{"cmd":"ping"}"#.to_string(),
            r#"{"ok":true,"server":"pathway-serve","version":1}"#.to_string(),
        ),
        (
            r#"{"cmd":"status"}"#.to_string(),
            r#"{"ok":true,"executor":{"workers":1,"queued_chunks":0,"active_workers":0},"jobs":[]}"#
                .to_string(),
        ),
        ("{".to_string(), r#"{"ok":false,"error":"malformed request: json offset 1: expected a string object key"}"#.to_string()),
        ("{}".to_string(), r#"{"ok":false,"error":"request has no string 'cmd' field"}"#.to_string()),
        (r#"{"cmd":"warp"}"#.to_string(), r#"{"ok":false,"error":"unknown command 'warp'"}"#.to_string()),
        (r#"{"cmd":"watch"}"#.to_string(), r#"{"ok":false,"error":"'watch' needs a string 'job' field"}"#.to_string()),
        (r#"{"cmd":"cancel","job":7}"#.to_string(), r#"{"ok":false,"error":"'cancel' needs a string 'job' field"}"#.to_string()),
        (r#"{"cmd":"submit"}"#.to_string(), r#"{"ok":false,"error":"'submit' needs a string 'spec' field"}"#.to_string()),
        (r#"{"cmd":"fetch-front","job":"job-9999"}"#.to_string(), r#"{"ok":false,"error":"no such job 'job-9999'"}"#.to_string()),
        (
            r#"{"cmd":"submit","spec":"not a spec"}"#.to_string(),
            r#"{"ok":false,"error":"spec line 1: expected header 'pathway-spec v1', found 'not a spec'"}"#.to_string(),
        ),
        (submit, format!(r#"{{"ok":true,"jobs":[{{{}}}]}}"#, summary("running", 0, 0, 0))),
    ];
    for (request, reply) in &replies {
        assert_eq!(&line.ask(request), reply, "reply to {request}");
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while !line
        .ask(r#"{"cmd":"status"}"#)
        .contains(r#""state":"completed""#)
    {
        assert!(Instant::now() < deadline, "the job never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let done = summary("completed", 3, 32, 8);
    let front = std::fs::read_to_string(dir.join("jobs/job-0001/front.front")).unwrap();
    let front = JsonValue::string(front).to_compact();
    let replies = [
        (
            r#"{"cmd":"status"}"#,
            format!(
                r#"{{"ok":true,"executor":{{"workers":1,"queued_chunks":0,"active_workers":0}},"jobs":[{{{done}}}]}}"#
            ),
        ),
        (
            r#"{"cmd":"watch","job":"job-0001"}"#,
            r#"{"ok":true,"job":"job-0001","state":"completed"}"#.to_string(),
        ),
    ];
    for (request, reply) in &replies {
        assert_eq!(&line.ask(request), reply, "reply to {request}");
    }
    assert_eq!(
        line.next(),
        r#"{"event":"end","job":"job-0001","state":"completed","generation":3}"#
    );
    let replies = [
        (
            r#"{"cmd":"cancel","job":"job-0001"}"#,
            format!(r#"{{"ok":true,{done}}}"#),
        ),
        (
            r#"{"cmd":"fetch-front","job":"job-0001"}"#,
            format!(r#"{{"ok":true,{done},"front":{front}}}"#),
        ),
        (r#"{"cmd":"shutdown"}"#, r#"{"ok":true}"#.to_string()),
    ];
    for (request, reply) in &replies {
        assert_eq!(&line.ask(request), reply, "reply to {request}");
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
