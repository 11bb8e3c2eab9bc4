//! Minimal Unix signal plumbing, using the libc symbols the Rust
//! standard library already links — no external crate needed.
//!
//! The server installs handlers for `SIGTERM`/`SIGINT` that do nothing
//! but set an atomic flag; the accept loop, which blocks in `poll(2)` on
//! the listener between accepts (`wait_readable`), checks it and starts
//! the graceful drain. `SIGKILL` cannot be handled by design — surviving it
//! is the persistence layer's job, which the kill–restart tests exercise by
//! sending real `SIGKILL`s to a real process.

#![allow(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Graceful-shutdown request codes.
pub const SIGINT: i32 = 2;
/// Graceful-shutdown request code sent by orchestrators.
pub const SIGTERM: i32 = 15;
/// Pause a process (the process tests pause a load generator with it).
#[cfg(target_os = "linux")]
pub const SIGSTOP: i32 = 19;
/// Resume a process paused by [`SIGSTOP`].
#[cfg(target_os = "linux")]
pub const SIGCONT: i32 = 18;
/// Pause a process (the process tests pause a load generator with it).
#[cfg(not(target_os = "linux"))]
pub const SIGSTOP: i32 = 17;
/// Resume a process paused by [`SIGSTOP`].
#[cfg(not(target_os = "linux"))]
pub const SIGCONT: i32 = 19;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getpid() -> i32;
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
}

/// `struct pollfd`.
#[cfg(unix)]
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(unix)]
const POLLIN: i16 = 1;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(all(unix, not(target_os = "linux")))]
type NfdsT = std::ffi::c_uint;

#[cfg(unix)]
extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `SIGTERM`/`SIGINT` handlers that trip the shutdown flag.
pub fn install_shutdown_handlers() {
    #[cfg(unix)]
    unsafe {
        let handler = on_shutdown_signal as extern "C" fn(i32) as *const () as usize;
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Whether a shutdown signal has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the shutdown flag from inside the process (tests, or a future
/// admin opcode). Equivalent to receiving `SIGTERM`.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Block until `fd` is readable (for a listening socket: a connection
/// is waiting) or `timeout` passes, whichever is first. A signal cutting
/// the wait short (`EINTR`) is a normal return, so the caller re-checks
/// its shutdown flag.
#[cfg(unix)]
pub(crate) fn wait_readable(fd: i32, timeout: std::time::Duration) -> std::io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `pfd` is a live, exclusively borrowed `struct pollfd` laid
    // out as libc's (`repr(C)`), and `nfds` = 1 names exactly it.
    if unsafe { poll(&mut pfd, 1, ms) } >= 0 {
        return Ok(());
    }
    let err = std::io::Error::last_os_error();
    if err.kind() == std::io::ErrorKind::Interrupted {
        Ok(())
    } else {
        Err(err)
    }
}

/// Send `sig` to `pid`. Used by the process tests to deliver `SIGTERM`
/// to a child server and `SIGSTOP`/`SIGCONT` to a load generator (real
/// signals across a real process boundary; `SIGKILL` goes through
/// `Child::kill`).
pub fn send_signal(pid: u32, sig: i32) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        if unsafe { kill(pid as i32, sig) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "signals are unix-only",
        ))
    }
}

/// This process's pid (printed by the server so a harness can signal it).
pub fn own_pid() -> u32 {
    #[cfg(unix)]
    unsafe {
        getpid() as u32
    }
    #[cfg(not(unix))]
    {
        std::process::id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_flag_round_trip() {
        // The flag is process-global; this test only ever sets it.
        request_shutdown();
        assert!(shutdown_requested());
    }

    #[cfg(unix)]
    #[test]
    fn own_pid_matches_std() {
        assert_eq!(own_pid(), std::process::id());
    }
}
