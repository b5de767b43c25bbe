//! The host fingerprint every result document records, so a noisy or
//! foreign-host run is visible next to its numbers.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pathway_core::jsonlite::JsonValue;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// Evaluation lanes the workload uses.
    pub lanes: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// The checkout's git revision, or `unknown` outside a git checkout.
    pub git_revision: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The 1-, 5- and 15-minute load averages when the run started.
    pub load_average: [f64; 3],
}

impl Host {
    /// Fingerprints this host for a workload using `lanes` lanes.
    pub fn probe(lanes: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            lanes,
            rustc: rustc_version(),
            git_revision: git_revision(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            load_average: load_average(),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("nproc", JsonValue::Int(self.nproc as i64)),
            ("lanes", JsonValue::Int(self.lanes as i64)),
            ("rustc", JsonValue::string(&self.rustc)),
            ("git_revision", JsonValue::string(&self.git_revision)),
            ("profile", JsonValue::string(self.profile)),
            (
                "load_average",
                JsonValue::Array(self.load_average.iter().map(|&l| number(l)).collect()),
            ),
        ])
    }
}

/// A finite number, or `null` for an unreadable one.
pub fn number(value: f64) -> JsonValue {
    if value.is_finite() {
        JsonValue::Number(value)
    } else {
        JsonValue::Null
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Reads `HEAD` of the git directory under `root` without running git:
/// a detached hash, or the hash its branch ref (loose or packed) names.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

fn load_average() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(f64::NAN));
    [(); 3].map(|()| fields.next().unwrap_or(f64::NAN))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used so far (every thread, exited threads
/// included), in seconds, at nanosecond resolution. A guest kernel with
/// paravirtual steal-time accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`,
/// as on the reference host) leaves the time the hypervisor stole from the
/// vCPUs out of it, which is one reason the benchmark's times use this
/// clock (see `perfbench/README.md`).
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanoseconds: i64,
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned value of that
    // layout; the clock id is a valid constant, so the call has no other
    // precondition.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if status == 0 {
        time.seconds as f64 + time.nanoseconds as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// One interval on two clocks, in seconds: wall time, and the process CPU
/// time of [`process_cpu_s`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds, every thread summed.
    pub cpu: f64,
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, other: Span) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// A reading of both clocks, to take [`Span`]s from.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Stamp {
        Stamp {
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// The interval from this reading to now.
    pub fn span(&self) -> Span {
        let wall = self.wall.elapsed().as_secs_f64();
        Span {
            wall,
            cpu: process_cpu_s() - self.cpu,
        }
    }
}
