//! Readiness for the serve loop, without the `libc` crate, in keeping
//! with the workspace's zero-dependency rule (DESIGN.md §5f).
//!
//! [`Poller`] has two backends, chosen only by what the platform
//! provides, behind one level-triggered API:
//!
//! * **epoll** (`epoll_create1`/`epoll_ctl`/`epoll_pwait` through three
//!   thin `asm!` syscall shims, Linux x86_64 and aarch64), used whenever
//!   `epoll_create1` succeeds;
//! * **sweep** everywhere else: a plain `(fd, token, interest)` registry
//!   whose `wait` sleeps at most [`SWEEP_TICK`] and then reports every
//!   registration ready for its interest. That is sound because the loop
//!   treats readiness as a hint: every accept, read and write already
//!   handles `WouldBlock`.
//!
//! Level-triggered semantics are deliberate: the loop re-polls until it
//! drains a readiness edge anyway, and level-triggering makes a missed
//! wakeup impossible by construction.
//!
//! [`Waker`] is the cross-thread nudge, written by worker threads when
//! an offloaded response is ready. Under epoll it is a pipe the poller
//! registers and drains itself (never reported as an event); a
//! `pending` flag collapses wake storms into one byte so the pipe can
//! never fill up and block a worker. Sweep needs no waker: each `wait`
//! returns within a tick.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
pub use std::os::fd::RawFd;
/// Descriptor type where `std::os::fd` does not exist; wide enough for
/// any platform's socket handle.
#[cfg(not(unix))]
pub type RawFd = i64;

/// The longest one sweep `wait` sleeps: the readiness latency of the
/// sweep backend, and the shortest interval at which it re-tries every
/// registration.
pub const SWEEP_TICK: Duration = Duration::from_millis(5);

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event. Errors and hangups surface as readability —
/// the subsequent read returns 0/`Err` and the owner tears down.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// The descriptor a socket registers under.
#[cfg(unix)]
pub fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> RawFd {
    socket.as_raw_fd()
}

/// The descriptor a socket registers under.
#[cfg(windows)]
pub fn raw_fd(socket: &impl std::os::windows::io::AsRawSocket) -> RawFd {
    socket.as_raw_socket() as RawFd
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw syscall shims and the epoll backend built on them. Numbers
    //! are per-architecture; the calling convention is the kernel's,
    //! not the C library's.

    use super::{raw_fd, Backend, Event, Interest, Waker};
    use std::io::{self, Read};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
    }

    /// Six-argument syscall; unused trailing arguments are zero.
    ///
    /// # Safety
    ///
    /// The caller must uphold the kernel contract for syscall `n`:
    /// pointer arguments must reference live memory of the expected
    /// shape for the duration of the call.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// See the x86_64 twin for the safety contract.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") n,
            options(nostack),
        );
        ret
    }

    /// Maps the kernel's negative-errno convention onto `io::Result`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0x80000;

    /// Kernel epoll_event. x86_64 packs it (legacy 32-bit layout
    /// compatibility); every other architecture aligns naturally.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Token under which the wake pipe is registered; it is drained
    /// inside `wait` and never reported.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// An owned epoll instance, its event buffer and its wake pipe.
    pub struct Epoll {
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
        wake: std::io::PipeReader,
        pub waker: Arc<Waker>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointer arguments.
            let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            // SAFETY: epoll_create1 just returned this fd; nothing else
            // owns it.
            let epfd = unsafe { OwnedFd::from_raw_fd(epfd as RawFd) };
            let (wake, writer) = std::io::pipe()?;
            let mut epoll = Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
                wake,
                waker: Arc::new(Waker {
                    writer: Some(writer),
                    pending: AtomicBool::new(false),
                }),
            };
            epoll.register(raw_fd(&epoll.wake), WAKE_TOKEN, Interest::READ)?;
            Ok(epoll)
        }

        fn ctl(&self, op: usize, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let event = EpollEvent {
                events: if interest.readable { EPOLLIN } else { 0 }
                    | if interest.writable { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `event` is a live EpollEvent for the duration of
            // the call (the kernel ignores it for DEL).
            check(unsafe {
                syscall6(
                    nr::EPOLL_CTL,
                    self.epfd.as_raw_fd() as usize,
                    op,
                    fd as usize,
                    &event as *const EpollEvent as usize,
                    0,
                    0,
                )
            })?;
            Ok(())
        }
    }

    impl Backend for Epoll {
        fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = timeout.map_or(-1i32, |d| {
                i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(0)
            });
            // SAFETY: `buf` outlives the call; maxevents bounds what the
            // kernel writes; sigmask is null.
            let got = check(unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd.as_raw_fd() as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    timeout_ms as isize as usize,
                    0,
                    0,
                )
            });
            let got = match got {
                Ok(n) => n,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => 0,
                Err(err) => return Err(err),
            };
            for raw in &self.buf[..got] {
                let flags = raw.events;
                if raw.data == WAKE_TOKEN {
                    // Clear the coalescing flag first: a wake racing
                    // this drain writes a fresh byte and the next wait
                    // returns immediately. One read takes every byte
                    // there is, and cannot block: epoll just reported
                    // at least one, and no other thread reads the pipe.
                    self.waker.pending.store(false, Ordering::SeqCst);
                    let _ = self.wake.read(&mut [0u8; 64]);
                    continue;
                }
                events.push(Event {
                    token: raw.data,
                    readable: flags & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: flags & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    #[repr(C)]
    struct Rlimit64 {
        rlim_cur: u64,
        rlim_max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Tries to raise the fd limit to at least `target` (raising the
    /// hard limit too when privileged). Returns the resulting soft
    /// limit — callers size their connection budgets off it.
    pub fn raise_nofile(target: u64) -> io::Result<u64> {
        let mut current = Rlimit64 {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: null new-limit pointer reads the current limit into
        // `current`, which outlives the call.
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut current as *mut Rlimit64 as usize,
                0,
                0,
            )
        })?;
        if current.rlim_cur >= target {
            return Ok(current.rlim_cur);
        }
        // Privileged processes may raise the hard limit outright.
        let want = Rlimit64 {
            rlim_cur: target,
            rlim_max: target.max(current.rlim_max),
        };
        // SAFETY: both limit structs outlive the call.
        let raised = check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &want as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        });
        if raised.is_ok() {
            return Ok(target);
        }
        // Unprivileged: the hard limit is the ceiling.
        let capped = Rlimit64 {
            rlim_cur: current.rlim_max.min(target),
            rlim_max: current.rlim_max,
        };
        // SAFETY: as above.
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &capped as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        })?;
        Ok(capped.rlim_cur)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use sys::raise_nofile;

/// Without the syscall shims there is no portable way to raise the fd
/// limit; callers fall back to their own default budget.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn raise_nofile(_target: u64) -> io::Result<u64> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "no prlimit shim",
    ))
}

/// One readiness backend behind [`Poller`].
trait Backend: Send {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

/// The portable backend: a registry that `wait` reports whole, one
/// tick at a time.
struct Sweep {
    registered: Vec<(RawFd, u64, Interest)>,
}

impl Backend for Sweep {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.registered.push((fd, token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let entry = self.registered.iter_mut().find(|entry| entry.0 == fd);
        *entry.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))? =
            (fd, token, interest);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.registered.retain(|entry| entry.0 != fd);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        std::thread::sleep(timeout.map_or(SWEEP_TICK, |t| t.min(SWEEP_TICK)));
        events.extend(self.registered.iter().map(|&(_, token, interest)| Event {
            token,
            readable: interest.readable,
            writable: interest.writable,
        }));
        Ok(())
    }
}

pub struct Poller {
    backend: Box<dyn Backend>,
    name: &'static str,
    waker: Arc<Waker>,
}

impl Poller {
    /// epoll when `epoll_create1` (and the wake pipe) succeed, the sweep
    /// backend otherwise. Not a `Default`: it probes the kernel.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Ok(epoll) = sys::Epoll::new() {
            return Self {
                name: "epoll",
                waker: Arc::clone(&epoll.waker),
                backend: Box::new(epoll),
            };
        }
        Self::sweep()
    }

    /// The portable backend, whatever the platform offers.
    pub(crate) fn sweep() -> Self {
        Self {
            backend: Box::new(Sweep {
                registered: Vec::new(),
            }),
            name: "sweep",
            waker: Arc::new(Waker {
                writer: None,
                pending: AtomicBool::new(false),
            }),
        }
    }

    /// `"epoll"` or `"sweep"`.
    pub fn backend_name(&self) -> &'static str {
        self.name
    }

    /// Unparks a `wait` from another thread (a no-op under sweep).
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.reregister(fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until readiness or `timeout` (`None` = indefinitely under
    /// epoll, one tick under sweep), appending events. EINTR is treated
    /// as an empty wake, never an error.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(events, timeout)
    }
}

/// Wakes a [`Poller`] parked in `wait` from another thread. Under epoll
/// it writes the poller's wake pipe; the `pending` flag coalesces
/// bursts — between two drains, at most one byte sits in the pipe, so
/// writes never block.
pub struct Waker {
    writer: Option<std::io::PipeWriter>,
    pending: AtomicBool,
}

impl runtime::Wake for Waker {
    fn wake(&self) {
        if let Some(writer) = &self.writer {
            if !self.pending.swap(true, Ordering::SeqCst) {
                // A full pipe (impossible under coalescing) or a dead
                // reader (loop exiting) are both fine to ignore.
                let _ = io::Write::write(&mut &*writer, &[1u8]);
            }
        }
    }
}

/// Readiness + waker smoke tests (the epoll ones are Linux-only).
#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sweep_reports_every_registration_within_a_tick() {
        let mut poller = Poller::sweep();
        assert_eq!(poller.backend_name(), "sweep");
        poller.register(3, 7, Interest::READ).unwrap();
        poller.register(4, 8, Interest::READ_WRITE).unwrap();
        poller.reregister(3, 7, Interest::READ_WRITE).unwrap();
        poller.deregister(4).unwrap();
        assert!(poller.reregister(4, 8, Interest::READ).is_err());

        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, None).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a sweep wait is one tick"
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable && events[0].writable);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod epoll {
        use super::*;
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};

        #[test]
        fn epoll_backend_is_selected_on_linux() {
            let poller = Poller::new();
            assert_eq!(poller.backend_name(), "epoll");
        }

        #[test]
        fn readiness_surfaces_on_a_socket_pair() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut poller = Poller::new();
            poller.register(raw_fd(&server), 7, Interest::READ).unwrap();

            // Nothing to read yet: a short wait times out empty.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty());

            client.write_all(b"ping").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            let mut server = server;
            let mut buf = [0u8; 8];
            assert_eq!(server.read(&mut buf).unwrap(), 4);

            // Write interest on an empty socket buffer fires immediately.
            events.clear();
            poller
                .reregister(raw_fd(&server), 7, Interest::READ_WRITE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.writable));

            poller.deregister(raw_fd(&server)).unwrap();
            events.clear();
            client.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "deregistered fd must stay silent");
        }

        #[test]
        fn waker_unparks_a_waiting_poller_and_coalesces() {
            use runtime::Wake;
            let mut poller = Poller::new();
            let remote = poller.waker();
            let handle = std::thread::spawn(move || {
                // A storm of wakes from another thread…
                for _ in 0..100 {
                    remote.wake();
                }
            });
            let mut events = Vec::new();
            let start = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            handle.join().unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(4),
                "the wake unparked the wait"
            );
            assert!(events.is_empty(), "the wake pipe is never reported");

            // …collapses to one byte in the pipe.
            let (mut reader, writer) = std::io::pipe().unwrap();
            let waker = Waker {
                writer: Some(writer),
                pending: AtomicBool::new(false),
            };
            for _ in 0..100 {
                waker.wake();
            }
            drop(waker);
            let mut drained = Vec::new();
            reader.read_to_end(&mut drained).unwrap();
            assert_eq!(
                drained.len(),
                1,
                "coalescing must keep the pipe at one byte"
            );
        }

        #[test]
        fn raise_nofile_reports_a_usable_budget() {
            let limit = raise_nofile(1024).expect("query/raise RLIMIT_NOFILE");
            assert!(limit >= 256, "implausibly low fd budget: {limit}");
        }
    }
}
