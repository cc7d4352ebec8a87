//! The workspace's only foreign declarations and its only `unsafe`.
//!
//! `std::net` can make a socket non-blocking but cannot wait for one of
//! many to become ready, so the reactor declares `epoll(7)` itself,
//! against the C library `std` already links — no `libc` crate
//! (DESIGN.md §7). Level-triggered: a descriptor is reported for as long
//! as it is ready, and closing it drops it from the set.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Interest in, or a report of, readability (`EPOLLIN`).
pub const READABLE: u32 = 0x001;
/// Interest in, or a report of, writability (`EPOLLOUT`).
pub const WRITABLE: u32 = 0x004;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// `struct epoll_event`, which the kernel ABI packs on x86-64 only.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct Event {
    events: u32,
    token: u64,
}

impl Event {
    /// The token its descriptor was registered under.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// A write would not block.
    pub fn writable(&self) -> bool {
        self.events & WRITABLE != 0
    }

    /// Readable, hung up or in error — all of which a read reports.
    pub fn readable(&self) -> bool {
        self.events & !WRITABLE != 0
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
}

/// An epoll instance, closed on drop.
#[derive(Debug)]
pub struct Epoll(OwnedFd);

impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: the call takes no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is open, was returned just now and has no other
        // owner.
        Ok(Epoll(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// Start reporting `interest` on `fd` under `token`, until `fd` is
    /// closed.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replace the interest `fd` was added with.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = Event {
            events: interest,
            token,
        };
        // SAFETY: `event` is a live `struct epoll_event` for the whole
        // call, which only reads it; a bad `fd` is an `EBADF` error.
        if unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait until a registered descriptor is ready — indefinitely when
    /// `block`, not at all otherwise — and fill `events` from the front
    /// with the reports; returns how many. Retries on `EINTR`.
    pub fn wait(&self, events: &mut [Event], block: bool) -> io::Result<usize> {
        let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        let timeout = if block { -1 } else { 0 };
        loop {
            // SAFETY: `events` is exclusively borrowed for the call and
            // holds at least `capacity` `struct epoll_event`s, the most
            // the kernel writes.
            let n =
                unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), capacity, timeout) };
            if let Ok(n) = usize::try_from(n) {
                return Ok(n);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}
