//! Driving the `hdoutlier` binary as a child process: one-shot jobs timed
//! from spawn to first output byte and to exit, their CPU time, and the
//! peak resident set of a running program.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a job's resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// One finished job.
pub struct Job {
    /// Spawn to the first byte on a piped stdout (the whole job otherwise).
    pub first_byte: Duration,
    /// Spawn to exit.
    pub total: Duration,
    /// User plus system CPU time the job used.
    pub cpu: Duration,
    /// The program's peak resident set, in MiB, as last sampled.
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    pub ok: bool,
}

/// What a job reads on stdin.
pub enum Feed<'a> {
    Nothing,
    /// A few bytes, written whole before the output is read, so they must
    /// fit the pipe buffer.
    Bytes(&'a [u8]),
    File(&'a Path),
}

/// Where a job writes stdout. A file spares the job a reader that wakes on
/// every flush, whose cost swings with the host's scheduling.
pub enum Sink<'a> {
    Pipe,
    File(&'a Path),
}

/// Largest [`Feed::Bytes`] input: well inside a pipe buffer.
const MAX_FED_BYTES: usize = 16 << 10;

/// Runs `bin args…` to completion while a second thread samples its
/// resident set. Standard error goes to `stderr_log`, which the caller
/// shows when the job fails; a [`Sink::File`] is read back into
/// [`Job::stdout`] after the job has exited.
pub fn run_job(
    bin: &Path,
    args: &[String],
    feed: Feed<'_>,
    sink: Sink<'_>,
    stderr_log: &Path,
) -> std::io::Result<Job> {
    let log = std::fs::File::create(stderr_log)?;
    let (stdin, bytes) = match feed {
        Feed::Nothing => (Stdio::null(), None),
        Feed::Bytes(bytes) => {
            assert!(bytes.len() <= MAX_FED_BYTES, "fed input must fit the pipe");
            (Stdio::piped(), Some(bytes))
        }
        Feed::File(path) => (std::fs::File::open(path)?.into(), None),
    };
    let stdout = match sink {
        Sink::Pipe => Stdio::piped(),
        Sink::File(path) => std::fs::File::create(path)?.into(),
    };
    let cpu_before = children_cpu();
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(stdin)
        .stdout(stdout)
        .stderr(log)
        .spawn()?;
    if let (Some(mut pipe), Some(bytes)) = (child.stdin.take(), bytes) {
        // The child closing its end early shows up as its exit status.
        let _ = pipe.write_all(bytes);
    }
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                // `None` once the program has exited.
                let Some(rss) = peak_rss_mb(pid) else { break };
                peak = peak.max(rss);
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let mut out = Vec::new();
        let mut first_byte = None;
        let read = match child.stdout.take() {
            None => Ok(()),
            Some(mut pipe) => {
                let mut chunk = vec![0u8; 1 << 16];
                loop {
                    match pipe.read(&mut chunk) {
                        Ok(0) => break Ok(()),
                        Ok(n) => {
                            first_byte.get_or_insert_with(|| start.elapsed());
                            out.extend_from_slice(&chunk[..n]);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        let status = child.wait();
        let total = start.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("sampler does not panic");
        let status = status?;
        read?;
        if let Sink::File(path) = sink {
            out = std::fs::read(path)?;
        }
        Ok(Job {
            first_byte: first_byte.unwrap_or(total),
            total,
            cpu: children_cpu() - cpu_before,
            peak_rss_mb: peak,
            stdout: out,
            ok: status.success(),
        })
    })
}

/// The peak resident set (`VmHWM`) of a running process, in MiB. `None`
/// once it has exited. The figure starts over at `exec`, so it covers the
/// program alone, never the benchmark it was spawned from.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of every child waited for so far, from
/// `getrusage(RUSAGE_CHILDREN)`.
pub fn children_cpu() -> Duration {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct rusage`
    // (two `timeval`s of two `long`s each, then fourteen `long`s) and lives
    // for the whole call, so the kernel writes only into memory this frame
    // owns.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let time = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    time(&usage.utime) + time(&usage.stime)
}

/// A working directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another run
        // still has its own directory there.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
