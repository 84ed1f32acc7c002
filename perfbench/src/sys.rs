//! The two libc calls std does not expose: `wait4` (a child's own peak
//! RSS, which `std::process::Child::wait` discards) and `getrusage`
//! (this process's CPU time). Linux on 64-bit targets only, where every
//! `rusage` field is a 64-bit word.

use std::io;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads rusage through the 64-bit Linux ABI");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two timevals, then fourteen `long` counters of which
/// `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// How a reaped child ended, with its peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code, or `-signal` when a signal killed it.
    pub code: i32,
    /// Peak resident set size in kilobytes.
    pub max_rss_kb: i64,
}

/// Blocks until child `pid` exits and reaps it. The caller must not also
/// reap it through `std::process::Child::wait`.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    wait(pid, 0).map(|r| r.expect("a blocking wait4 returns only once the child has exited"))
}

/// Reaps child `pid` if it has exited, without blocking.
pub fn try_reap(pid: u32) -> io::Result<Option<Reaped>> {
    wait(pid, WNOHANG)
}

const WNOHANG: i32 = 1;

fn wait(pid: u32, options: i32) -> io::Result<Option<Reaped>> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and the 64-bit `struct rusage`).
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == pid {
            break;
        }
        if r == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok(Some(Reaped {
        code,
        max_rss_kb: usage.maxrss,
    }))
}

/// User plus system CPU time this process has used so far.
pub fn cpu_time() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable 64-bit `struct rusage`.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        r, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}
