//! Runs one child process to completion and reads what it cost: wall time
//! from spawn to exit, user + system CPU time and peak resident set size
//! from the kernel's `rusage` for exactly that child.
//!
//! `std::process::Child::wait` discards the `rusage`, so the child is reaped
//! with `wait4(2)` instead. And it is not the harness that spawns it but a
//! [`Spawner`]: a copy of this executable started while the harness is still
//! small, which does nothing but spawn and reap on request. On `exec` Linux
//! folds the spawning process's own resident-set high-water mark into the
//! new program's `ru_maxrss`, so a child spawned straight from a harness that
//! has replayed traces in-process reports the harness's hundreds of MB, not
//! its own peak. The helper stays at a megabyte or two.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through wait4(2) on 64-bit Linux");

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Spawn to reaped exit, seconds.
    pub wall_s: f64,
    /// `ru_utime + ru_stime`, seconds (all threads of the child).
    pub cpu_s: f64,
    /// `ru_maxrss`, in MB (10⁶ bytes).
    pub maxrss_mb: f64,
}

/// Spawns `cmd` from this process, waits for it, and returns its cost.
fn run_here(cmd: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects on this target (checked by the cfg above); `pid`
        // is a child this process spawned and has not yet waited for, and
        // `child` is never waited on through std afterwards.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Exit {
        // WIFEXITED && WEXITSTATUS == 0.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        maxrss_mb: usage.maxrss_kb as f64 * 1024.0 / 1e6,
    })
}

/// The argument that turns this executable into the spawning helper.
pub const SPAWNER_ARG: &str = "__spawner";

/// One request or reply per line, fields separated by tabs (no path or
/// argument the benchmark passes contains one).
const SEP: char = '\t';

/// Handle on the spawning helper. Dropping it closes the helper's stdin,
/// which ends its loop, and waits for it.
pub struct Spawner {
    helper: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper. Call before the harness allocates anything large.
    pub fn start() -> io::Result<Self> {
        let mut helper = Command::new(std::env::current_exe()?)
            .arg(SPAWNER_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Spawner {
            requests: helper.stdin.take(),
            replies: BufReader::new(helper.stdout.take().expect("stdout was piped")),
            helper,
        })
    }

    /// Runs `program args…` to completion with stdin and stdout closed off
    /// and stderr written to the file `stderr`, and returns what it cost.
    pub fn run(&mut self, program: &Path, args: &[String], stderr: &Path) -> io::Result<Exit> {
        let mut request = format!("{}{SEP}{}", stderr.display(), program.display());
        for arg in args {
            request.push(SEP);
            request.push_str(arg);
        }
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "{request}")?;
        requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        parse_reply(reply.trim_end_matches('\n'))
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        self.requests = None;
        let _ = self.helper.wait();
    }
}

fn reply_line(done: &io::Result<Exit>) -> String {
    match done {
        Ok(exit) => format!(
            "{}{SEP}{}{SEP}{}{SEP}{}",
            exit.success, exit.wall_s, exit.cpu_s, exit.maxrss_mb
        ),
        Err(e) => format!("error{SEP}{e}"),
    }
}

fn parse_reply(reply: &str) -> io::Result<Exit> {
    let bad = || io::Error::other(format!("spawner replied `{reply}`"));
    let fields: Vec<&str> = reply.split(SEP).collect();
    match fields[..] {
        ["error", message] => Err(io::Error::other(message.to_string())),
        [success, wall_s, cpu_s, maxrss_mb] => Ok(Exit {
            success: success.parse().map_err(|_| bad())?,
            wall_s: wall_s.parse().map_err(|_| bad())?,
            cpu_s: cpu_s.parse().map_err(|_| bad())?,
            maxrss_mb: maxrss_mb.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

/// The helper's `main`: one request line in, one child run, one reply line
/// out, until stdin closes.
pub fn spawner_main() -> ExitCode {
    for request in io::stdin().lock().lines() {
        let Ok(request) = request else {
            return ExitCode::FAILURE;
        };
        let mut fields = request.split(SEP);
        let (Some(stderr), Some(program)) = (fields.next(), fields.next()) else {
            return ExitCode::FAILURE;
        };
        let done = std::fs::File::create(stderr).and_then(|stderr| {
            run_here(
                Command::new(program)
                    .args(fields)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(stderr),
            )
        });
        // Rust's stdout is line-buffered, so the reply leaves with its newline.
        println!("{}", reply_line(&done));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> io::Result<Exit> {
        run_here(Command::new("sh").args(["-c", script]).stdin(Stdio::null()))
    }

    #[test]
    fn reports_exit_status_and_plausible_costs() {
        let ok = sh("exit 0").unwrap();
        assert!(ok.success);
        assert!(ok.wall_s > 0.0 && ok.wall_s < 10.0);
        assert!(ok.cpu_s >= 0.0 && ok.cpu_s < 10.0);
        assert!(ok.maxrss_mb > 0.1, "{ok:?}");
        assert!(!sh("exit 3").unwrap().success);
        assert!(!sh("kill -9 $$").unwrap().success);
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(run_here(&mut Command::new("/nonexistent/lhr-cache")).is_err());
    }

    #[test]
    fn replies_round_trip() {
        let exit = Exit {
            success: true,
            wall_s: 0.3412907,
            cpu_s: 0.412,
            maxrss_mb: 55.185408,
        };
        assert_eq!(parse_reply(&reply_line(&Ok(exit))).unwrap(), exit);
        let failed = parse_reply(&reply_line(&Err(io::Error::other("no such file"))));
        assert_eq!(failed.unwrap_err().to_string(), "no such file");
        assert!(parse_reply("").is_err());
        assert!(parse_reply("true\t1\t2").is_err());
        assert!(parse_reply("true\tfast\t2\t3").is_err());
    }
}
