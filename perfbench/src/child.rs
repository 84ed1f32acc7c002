//! Runs `seldon` as a child process the way a user's shell would, timing
//! it from spawn to reap and recording its own peak RSS.

use crate::sys;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The `seldon` binary plus the file its children's stderr goes to.
pub struct Seldon {
    pub bin: PathBuf,
    pub stderr_log: PathBuf,
}

/// One finished child.
pub struct Finished {
    pub wall: Duration,
    pub code: i32,
    pub max_rss_kb: i64,
    pub stdout: String,
    pub stderr: String,
}

impl Seldon {
    fn command(&self, args: &[&str]) -> io::Result<Command> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(&self.stderr_log)?));
        Ok(cmd)
    }

    /// Runs `seldon <args>` to completion.
    pub fn run(&self, args: &[&str]) -> io::Result<Finished> {
        let mut cmd = self.command(args)?;
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let mut stdout = String::new();
        child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout)?;
        let reaped = sys::reap(child.id())?;
        let wall = started.elapsed();
        let stderr = std::fs::read_to_string(&self.stderr_log).unwrap_or_default();
        Ok(Finished {
            wall,
            code: reaped.code,
            max_rss_kb: reaped.max_rss_kb,
            stdout,
            stderr,
        })
    }

    /// Starts `seldon <args>` and leaves it running (the serve daemon).
    pub fn spawn(&self, args: &[&str]) -> io::Result<Daemon> {
        let mut cmd = self.command(args)?;
        cmd.stdout(Stdio::null());
        Ok(Daemon {
            child: Some(cmd.spawn()?),
        })
    }
}

/// A running child that is killed and reaped if it is dropped unreaped,
/// so no benchmark exit path leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    /// Waits for the child to exit on its own (after a `shutdown`
    /// request); kills it once `limit` has passed.
    // `sys::try_reap`/`sys::reap` reap the child (`wait4`), which clippy
    // cannot see.
    #[allow(clippy::zombie_processes)]
    pub fn finish(mut self, limit: Duration) -> io::Result<sys::Reaped> {
        let mut child = self.child.take().expect("a daemon is reaped once");
        let deadline = Instant::now() + limit;
        loop {
            if let Some(reaped) = sys::try_reap(child.id())? {
                return Ok(reaped);
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                return sys::reap(child.id());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = sys::reap(child.id());
        }
    }
}

/// One client connection to a `seldon serve` daemon: one request line
/// out, one response line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects, retrying while the daemon is still starting, until
    /// `limit` has passed.
    pub fn connect(socket: &Path, limit: Duration) -> io::Result<Conn> {
        let deadline = Instant::now() + limit;
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break stream,
                Err(err) if Instant::now() >= deadline => return Err(err),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `line` and returns the response with the round-trip time,
    /// from writing the request to reading the whole response line.
    pub fn request(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let started = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        let rtt = started.elapsed();
        if response.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok((response, rtt))
    }
}
