//! The programs under test as child processes: timed CLI invocations,
//! the serve daemon (always drained or killed, and always waited for),
//! and the children's peak resident set size.

use slopt_serve::Client;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the release binaries are: `SLOPT_BIN_DIR` (set by `run.sh`),
/// else `target/release` under the current directory.
pub fn bin(name: &str) -> PathBuf {
    std::env::var_os("SLOPT_BIN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/release"))
        .join(name)
}

/// Runs `bin args…` to completion and returns its wall time and stdout.
/// A non-zero exit is an error carrying the program's stderr tail.
pub fn run_timed(program: &str, args: &[String]) -> Result<(Duration, String), String> {
    let t0 = Instant::now();
    let out = Command::new(bin(program))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let wall = t0.elapsed();
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!(
            "{program} {} exited with {}: {}",
            args.join(" "),
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok((wall, String::from_utf8_lossy(&out.stdout).into_owned()))
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn zeroed() -> Rusage {
        Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        }
    }

    fn maxrss_mb(&self) -> f64 {
        self.maxrss as f64 / 1024.0
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Largest resident set size, in MB, of any child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage::zeroed();
    // SAFETY: `usage` is a valid, writable `struct rusage` of the size
    // and layout the C library expects on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss_mb()
}

/// Reaps child `pid` without blocking (`wait4(WNOHANG)`): `Some((exit
/// status, peak RSS in MB))` once it has exited, `None` while it runs.
fn reap(pid: u32) -> io::Result<Option<(i32, f64)>> {
    const WNOHANG: i32 = 1;
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::zeroed();
    // SAFETY: `status` and `usage` are valid, writable and of the types
    // wait4(2) fills on 64-bit Linux; `pid` is our own unreaped child.
    let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
    match rc {
        0 => Ok(None),
        r if r == pid => Ok(Some((status, usage.maxrss_mb()))),
        _ => Err(io::Error::last_os_error()),
    }
}

/// A running `slopt-serve` daemon. Dropping it kills the process and
/// waits for it; [`Daemon::drain`] is the graceful path.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// The daemon's bound address.
    pub addr: SocketAddr,
}

/// How long a daemon may take to publish its address or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(20);

impl Daemon {
    /// Spawns `slopt-serve` on `state_dir` (resuming its journal when
    /// `resume`) and returns once the daemon has published its bound
    /// address. The caller times readiness with its first request.
    pub fn spawn(state_dir: &Path, resume: bool, window: u64, jobs: usize) -> io::Result<Daemon> {
        let addr_file = state_dir.join(slopt_serve::ADDR_FILE);
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(bin("slopt-serve"));
        cmd.arg("--checkpoint-dir")
            .arg(state_dir)
            .args(["--window", &window.to_string(), "--jobs", &jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let mut daemon = Daemon {
            child: Some(cmd.spawn()?),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    daemon.addr = addr;
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!(
                    "slopt-serve exited with {status} before binding"
                )));
            }
            if t0.elapsed() > DAEMON_DEADLINE {
                return Err(io::Error::other("slopt-serve did not publish its address"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A new client connection to this daemon.
    pub fn client(&self) -> Client {
        Client::new(self.addr.to_string())
    }

    /// Asks the daemon to drain, waits for it to exit cleanly, and
    /// returns its peak resident set size in MB.
    pub fn drain(mut self) -> io::Result<f64> {
        let ack = self.client().drain();
        let mut child = self
            .child
            .take()
            .expect("a daemon owns its child until drained");
        let t0 = Instant::now();
        let reaped = loop {
            match reap(child.id()) {
                Ok(Some(done)) => break Ok(done),
                Ok(None) if t0.elapsed() <= DAEMON_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => break Err(io::Error::other("slopt-serve did not exit after DRAIN")),
                Err(e) => break Err(e),
            }
        };
        let (status, rss_mb) = match reaped {
            Ok(done) => done,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        ack?;
        if status == 0 {
            Ok(rss_mb)
        } else {
            Err(io::Error::other(format!(
                "slopt-serve drained with wait status {status}"
            )))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
