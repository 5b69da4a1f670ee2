//! Readiness polling for the serving core: a minimal, safe
//! wrapper over Linux `epoll(7)` and `eventfd(2)`, bound by raw
//! `extern "C"` declarations against the system libc (the build
//! environment has no crates.io access, so there is no `libc` crate to
//! lean on — these five syscall wrappers are the entire unsafe surface of
//! the workspace, and this module is the only one that may use `unsafe`).
//!
//! The wrapper keeps the kernel API's shape — edge cases and all — but
//! owns every file descriptor it creates ([`Epoll`] and [`WakeFd`] close
//! on drop) and never hands out raw pointers: callers see
//! [`Epoll::wait`] filling a `Vec<(u64, u32)>` of `(token, readiness)`
//! pairs and nothing lower-level.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readiness: data to read (or a pending `accept`).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never subscribed).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: the peer closed the connection.
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const RLIMIT_NOFILE: i32 = 7;

/// The kernel's `struct epoll_event`.  Packed on x86-64 (the kernel UAPI
/// declares it `__attribute__((packed))` there, and only there).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// The soft `RLIMIT_NOFILE` bound: how many file descriptors this process
/// may hold open.  Connection-scaling tiers (the `e16_connscale` bench,
/// the CI smoke) consult this to degrade to a documented skip instead of
/// failing spuriously when `ulimit -n` is low.
pub fn max_open_files() -> Option<u64> {
    let mut limit = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `limit` is a valid, writable RLimit matching the kernel's
    // layout for this (resource, arch); getrlimit writes it or fails.
    let ret = unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) };
    (ret == 0).then_some(limit.rlim_cur)
}

/// An owned `epoll` instance.  Closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The OS error from `epoll_create1`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; the flag value is the kernel's EPOLL_CLOEXEC.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `event` is a valid EpollEvent for the duration of the
        // call; the kernel copies it before returning.  For DEL the
        // pointer is ignored on every kernel ≥ 2.6.9 but passing a valid
        // one is harmless.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` for `interest`, delivering `token` with its events.
    ///
    /// # Errors
    ///
    /// The OS error from `epoll_ctl`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest set of a registered `fd`.
    ///
    /// # Errors
    ///
    /// The OS error from `epoll_ctl`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The OS error from `epoll_ctl` (already-closed fds surface `EBADF`;
    /// callers deregister before closing).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events` with `(token, readiness)`
    /// pairs.  `timeout` of `None` blocks until an event arrives; an
    /// `EINTR`-interrupted wait reports zero events rather than an error.
    ///
    /// # Errors
    ///
    /// The OS error from `epoll_wait` (never `EINTR`).
    pub fn wait(&self, events: &mut Vec<(u64, u32)>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
        let timeout_ms = match timeout {
            None => -1i32,
            // Round up so a 0 < t < 1 ms timeout still sleeps.
            Some(t) => {
                i32::try_from(t.as_millis().max(u128::from(!t.is_zero() as u8))).unwrap_or(i32::MAX)
            }
        };
        // SAFETY: `buf` is a valid array of 128 EpollEvents; the kernel
        // writes at most `maxevents` entries and returns how many.
        let n = match cvt(unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), 128, timeout_ms) }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for event in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (token, readiness) = (event.data, event.events);
            events.push((token, readiness));
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll fd this struct owns.
        unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed wake-up: any thread may [`WakeFd::wake`] the
/// event loop out of `epoll_wait`; the loop [`WakeFd::drain`]s the
/// counter and checks its queues, so stopping the server needs no
/// polling loop.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates a non-blocking, close-on-exec eventfd.
    ///
    /// # Errors
    ///
    /// The OS error from `eventfd`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; flags are the kernel's EFD_* values.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(WakeFd { fd })
    }

    /// The fd to register with [`Epoll::add`] (interest [`EPOLLIN`]).
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Signals the event loop.  Never blocks: an eventfd counter at
    /// `u64::MAX - 1` would make `write` spuriously fail, but that takes
    /// ~2^64 unconsumed wakes; the error is ignored by design because the
    /// loop is then already awash in wake-ups.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is 8 valid bytes, the size eventfd writes expect.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Consumes all pending wake-ups (the level-triggered registration
    /// stops firing once the counter is back to zero).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 valid, writable bytes.  EFD_NONBLOCK makes
        // this return EAGAIN instead of blocking when already drained.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the eventfd this struct owns.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wake_fd_rouses_an_idle_epoll_wait() {
        let epoll = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN, 7).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a bounded wait times out empty.
        epoll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        wake.wake();
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 7, "the registered token comes back");
        assert_ne!(events[0].1 & EPOLLIN, 0);

        // Drained, the level-triggered fd goes quiet again.
        wake.drain();
        epoll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_reports_the_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|&(t, r)| t == 42 && r & EPOLLIN != 0));
        let mut buf = [0u8; 4];
        (&server_side).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Peer close surfaces as RDHUP (with IN for the pending EOF).
        drop(client);
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|&(t, r)| t == 42 && r & (EPOLLRDHUP | EPOLLHUP | EPOLLIN) != 0));

        epoll.delete(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest_to_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(server_side.as_raw_fd(), EPOLLIN, 1).unwrap();

        // An idle, writable socket with IN-only interest stays silent...
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // ...until interest includes OUT.
        epoll
            .modify(server_side.as_raw_fd(), EPOLLIN | EPOLLOUT, 1)
            .unwrap();
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|&(t, r)| t == 1 && r & EPOLLOUT != 0));
        drop(client);
    }

    #[test]
    fn fd_limit_is_reported() {
        let limit = max_open_files().expect("getrlimit works on Linux");
        assert!(limit >= 64, "even constrained CI grants a few fds");
    }
}
