//! Blocking NDJSON client for the serve workloads.
//!
//! One thread drives one connection: it sends on schedule and, between
//! sends, reads responses with a timeout up to the next due time,
//! matching them to requests by `id`. Open-loop latency is measured from
//! the due time, so a stall also charges the requests queued behind it.

use crate::gauge::Gauge;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest response line accepted — the server's own request-line cap.
/// A longer line is a protocol failure, not a reason to keep buffering.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Sub-millisecond waits. A socket read timeout (`SO_RCVTIMEO`) is
/// rounded up to scheduler ticks — about 8 ms on a 2-vCPU KVM guest —
/// which would make a 2,000/s schedule fire late by whole milliseconds.
/// `ppoll` sleeps on a high-resolution timer instead, and a 1 ns timer
/// slack keeps its wake-ups within microseconds of the due time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` on 64-bit Linux: `time_t` is a `long`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x1;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_void) -> c_int;
    }

    /// Waits until `stream` has bytes (or EOF) to read, or `timeout`
    /// passes; `true` when readable.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are initialised locals that outlive the
        // call, laid out as the kernel's `pollfd` and `timespec`; `nfds`
        // is 1, the length of the one-entry array behind `&mut fd`; a null
        // signal mask leaves the thread's mask unchanged.
        let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if ready < 0 {
            let e = std::io::Error::last_os_error();
            return if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            };
        }
        Ok(ready > 0)
    }

    /// Sets the calling thread's timer slack to 1 ns.
    pub fn tight_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; it touches no
        // memory of this process.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }

    /// Restricts the calling thread (and threads it spawns later) to the
    /// given CPUs; `false` when the kernel refuses.
    pub fn pin(cpus: &[usize]) -> bool {
        // A 1,024-bit `cpu_set_t`.
        let mut mask = [0u64; 16];
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live, initialised 128-byte buffer and its
        // exact size is passed; pid 0 names the calling thread; the kernel
        // only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr().cast()) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark calls Linux system calls and reads /proc: it runs on 64-bit Linux");

/// Where the serve workloads run: the server's threads on one CPU, the
/// two client threads on another.
///
/// Left to the scheduler, whether a client thread shares a CPU with the
/// server thread it wakes changes from run to run and stays fixed within
/// one. A cross-CPU wake-up costs an inter-processor interrupt, which in
/// a virtual machine is far dearer than a local one, so the median read
/// latency of identical runs split into two modes almost a factor of two
/// apart. Fixing the placement removes that mode switch. On a machine
/// with one CPU nothing is pinned.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// The thread that calls `serve()`; every server thread inherits it.
    Server,
    /// A load-generating client thread.
    Client,
    /// Every CPU again, for work after the timed phase.
    Any,
}

impl Placement {
    /// Pins the calling thread accordingly (a no-op with fewer than two
    /// CPUs or where pinning is unsupported).
    pub fn apply(self) {
        // Counted once, before anything is pinned: afterwards the count
        // would see only the caller's own mask.
        static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let cpus =
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        if cpus < 2 {
            return;
        }
        let set: Vec<usize> = match self {
            Placement::Server => vec![0],
            Placement::Client => vec![1],
            Placement::Any => (0..cpus).collect(),
        };
        sys::pin(&set);
    }
}

/// How long before a quiet window ends the gauge starts its attempts at
/// a slice in it. Until then the server may still be answering or
/// releasing epochs; a slice it overlaps is not kept (see [`Gauge`]),
/// and later attempts follow until the window ends.
const GAUGE_LEAD: Duration = Duration::from_millis(20);

/// Times a gauge slice that runs alone (see [`Gauge::slice`]) before
/// `until`, on the server's CPU, where the work the gauge stands for runs
/// and where any server thread that runs preempts the slice.
fn gauge_slice(gauge: &mut Gauge, until: Instant) {
    Placement::Server.apply();
    gauge.slice(until);
    Placement::Client.apply();
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// One connection: a write half, a read half, and the bytes read but not
/// yet returned (`pending[start..]`).
#[derive(Debug)]
pub struct Conn {
    write: TcpStream,
    read: TcpStream,
    pending: Vec<u8>,
    start: usize,
    chunk: Box<[u8]>,
}

impl Conn {
    /// Connects with Nagle off (lines are small; the server does the same).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let write = TcpStream::connect(addr)?;
        write.set_nodelay(true)?;
        let read = write.try_clone()?;
        Ok(Conn {
            write,
            read,
            pending: Vec::new(),
            start: 0,
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Sends one request line (newline included).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.write.write_all(line.as_bytes())
    }

    /// The next complete response line, waiting until `deadline`;
    /// `Ok(None)` when the deadline passes first. Partial lines stay
    /// buffered across timeouts, and a line longer than the cap fails.
    pub fn recv(&mut self, deadline: Instant) -> std::io::Result<Option<String>> {
        loop {
            let unread = &self.pending[self.start..];
            if let Some(end) = unread.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8(unread[..end].to_vec())
                    .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 line"))?;
                self.start += end + 1;
                if self.start == self.pending.len() {
                    self.pending.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            // Only a partial line is left: move it to the front once,
            // before reading more.
            self.pending.drain(..self.start);
            self.start = 0;
            if self.pending.len() > MAX_LINE_BYTES {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "response line exceeds 1 MiB",
                ));
            }
            let now = Instant::now();
            if now >= deadline || !sys::wait_readable(&self.read, deadline - now)? {
                return Ok(None);
            }
            match self.read.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One request, its single-line response (lockstep; for control ops).
    pub fn round_trip(&mut self, line: &str, timeout: Duration) -> Result<String, String> {
        self.send(line).map_err(|e| format!("send failed: {e}"))?;
        self.recv(Instant::now() + timeout)
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or_else(|| format!("no response within {timeout:?} to {}", line.trim_end()))
    }
}

/// One request's life on a connection.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When the schedule wanted it sent (the send time in a closed loop).
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its terminal response line arrived.
    pub done: Option<Instant>,
    /// Every response line, newline-separated (a heat map streams many).
    pub response: String,
}

impl Exchange {
    /// Latency in ms from the due time, if answered.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the send was against the schedule, in ms.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The requests of one connection, indexed by their `id` (0, 1, …).
#[derive(Debug, Default)]
pub struct Log {
    /// Exchanges by id.
    pub exchanges: Vec<Exchange>,
    outstanding: usize,
}

/// Whether a response line ends its request: every line does except a
/// heat-map batch, which carries `tiles` and no `done`.
fn is_terminal(line: &str) -> bool {
    !line.contains("\"tiles\":") || line.contains("\"done\":true")
}

/// The correlation id of a response line (the server writes it first).
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

impl Log {
    /// Requests still waiting for their terminal line.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Sends the next `n` requests, all due at `due`, in one write; ids
    /// continue from the number sent so far.
    pub fn send(
        &mut self,
        conn: &mut Conn,
        due: Instant,
        n: usize,
        line: impl FnMut(u64) -> String,
    ) -> std::io::Result<()> {
        let first = self.exchanges.len() as u64;
        let text: String = (first..first + n as u64).map(line).collect();
        conn.send(&text)?;
        let sent = Instant::now();
        self.exchanges.extend((0..n).map(|_| Exchange {
            due,
            sent,
            done: None,
            response: String::new(),
        }));
        self.outstanding += n;
        Ok(())
    }

    /// Files a response line under its request; returns whether it
    /// completed one.
    pub fn receive(&mut self, line: String, at: Instant) -> Result<bool, String> {
        let id = response_id(&line).ok_or_else(|| format!("response without an id: {line}"))?;
        let exchange = usize::try_from(id)
            .ok()
            .and_then(|i| self.exchanges.get_mut(i))
            .filter(|e| e.done.is_none())
            .ok_or_else(|| format!("response for no pending request: {line}"))?;
        let terminal = is_terminal(&line);
        if !exchange.response.is_empty() {
            exchange.response.push('\n');
        }
        exchange.response.push_str(&line);
        if terminal {
            exchange.done = Some(at);
            self.outstanding -= 1;
        }
        Ok(terminal)
    }

    /// Files every response that arrives until `until`.
    fn read_until(&mut self, conn: &mut Conn, until: Instant) -> Result<(), String> {
        while let Some(line) = conn.recv(until).map_err(|e| e.to_string())? {
            self.receive(line, Instant::now())?;
        }
        Ok(())
    }

    /// Reads responses until nothing is outstanding or `deadline` passes;
    /// what is still missing then counts as failed.
    pub fn drain(&mut self, conn: &mut Conn, deadline: Instant) -> Result<(), String> {
        while self.outstanding > 0 {
            match conn.recv(deadline).map_err(|e| e.to_string())? {
                Some(line) => {
                    self.receive(line, Instant::now())?;
                }
                None => break,
            }
        }
        Ok(())
    }
}

/// Quiet windows, in which both client threads send nothing.
///
/// The server advances a connection's epoch cursor only after that
/// connection has been idle for its 25 ms read poll, and the epoch store
/// keeps every snapshot newer than the oldest cursor. A connection that
/// is never idle therefore pins every epoch published while it lives —
/// about 0.9 MB per epoch on the Foursquare-like world and 3.1 MB on the
/// Gowalla-like one, which an update-heavy writer publishes hundreds of
/// times a second. The windows bound that to the epochs published
/// between two of them.
///
/// That retention is a defect of the server (its connection loop moves
/// the cursor only in the read-timeout arm), and the windows keep the
/// benchmark from measuring it: `peak_heap_mb` cannot show it, and the
/// traffic pauses where a continuous open or closed loop would not.
/// Once the server moves the cursor on every request, the windows should
/// go.
///
/// Windows either follow a schedule — the last `quiet` of every `period`
/// — or are held by a closed-loop writer after each of its bursts
/// ([`Quiet::hold`]). Held windows make the number of epochs between two
/// windows, and so the peak RSS, independent of how fast updates go.
#[derive(Debug)]
pub struct Quiet {
    origin: Instant,
    /// `(period, quiet)` of scheduled windows.
    every: Option<(Duration, Duration)>,
    /// End of the held window, in ns after `origin` (0: none).
    held_until_ns: AtomicU64,
}

impl Quiet {
    /// Windows of `quiet` at the end of each `period` from `origin`.
    pub fn every(origin: Instant, period: Duration, quiet: Duration) -> Quiet {
        assert!(quiet < period, "a quiet window must leave time to send");
        Quiet {
            origin,
            every: Some((period, quiet)),
            held_until_ns: AtomicU64::new(0),
        }
    }

    /// Only the windows a thread holds.
    pub fn held(origin: Instant) -> Quiet {
        Quiet {
            origin,
            every: None,
            held_until_ns: AtomicU64::new(0),
        }
    }

    /// Holds a window from now until `until`.
    pub fn hold(&self, until: Instant) {
        let ns = u64::try_from(until.saturating_duration_since(self.origin).as_nanos())
            .unwrap_or(u64::MAX);
        // ordering: Release pairs with the Acquire load in `resume`; the
        // deadline is the only data it publishes.
        self.held_until_ns.store(ns, Ordering::Release);
    }

    /// When the quiet window containing `t` ends, if `t` is in one.
    pub fn resume(&self, t: Instant) -> Option<Instant> {
        // ordering: Acquire pairs with the Release store in `hold`.
        let held = self.origin + Duration::from_nanos(self.held_until_ns.load(Ordering::Acquire));
        if t < held {
            return Some(held);
        }
        let (period, quiet) = self.every?;
        let since = t.saturating_duration_since(self.origin).as_nanos();
        let into = since % period.as_nanos();
        (into >= period.as_nanos() - quiet.as_nanos()).then(|| {
            let left = u64::try_from(period.as_nanos() - into).unwrap_or(u64::MAX);
            t + Duration::from_nanos(left)
        })
    }
}

/// Open loop: request `i` is due at `start + i / rate`, except that due
/// times inside quiet windows are skipped; sends stop at `end`. Between
/// sends the thread reads responses until the next due time. With a
/// `gauge`, the thread times one slice near the end of each quiet window.
/// Returns with requests possibly still outstanding.
pub fn open_loop(
    conn: &mut Conn,
    log: &mut Log,
    quiet: &Quiet,
    (rate, mut gauge): (f64, Option<&mut Gauge>),
    (start, end): (Instant, Instant),
    mut line: impl FnMut(u64) -> String,
) -> Result<(), String> {
    sys::tight_timers();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut next = 0u32;
    loop {
        let due = start + interval * next;
        if due >= end {
            return Ok(());
        }
        if let Some(resume) = quiet.resume(due) {
            if let Some(g) = gauge.as_deref_mut() {
                log.read_until(conn, resume - GAUGE_LEAD)?;
                gauge_slice(g, resume);
            }
            // Skip the due times inside the window.
            let skip = ((resume - due).as_secs_f64() * rate).ceil().max(1.0) as u64;
            next = next.saturating_add(u32::try_from(skip).unwrap_or(u32::MAX));
            continue;
        }
        if Instant::now() >= due {
            log.send(conn, due, 1, &mut line)
                .map_err(|e| e.to_string())?;
            next += 1;
            continue;
        }
        if let Some(response) = conn.recv(due).map_err(|e| e.to_string())? {
            log.receive(response, Instant::now())?;
        }
    }
}

/// What one closed-loop burst of [`bursts`] looks like.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Requests per burst.
    pub size: usize,
    /// Most requests unanswered at once.
    pub in_flight: usize,
    /// Quiet window the thread holds after each burst.
    pub pause: Option<Duration>,
    /// A burst with no answer for this long ends the bursts.
    pub timeout: Duration,
}

/// Closed-loop bursts. A burst sends `size` requests, keeping at most
/// `in_flight` unanswered and writing what that allows at once (all 128
/// capacity reads in one write, so the server's batching does not depend
/// on how fast this thread writes), and ends when all are answered; no
/// burst starts inside a quiet window, and with a `pause` this thread
/// holds a window that long after each burst, and times a slice of
/// `gauge` near its end. Each burst starts from an idle server, so each
/// one repeats the same fill and drain of the pipeline. Bursts repeat
/// while `more(bursts done)`; a burst with no answer for `timeout` ends
/// them, and its missing answers count as failed.
pub fn bursts(
    conn: &mut Conn,
    log: &mut Log,
    quiet: &Quiet,
    burst: Burst,
    mut gauge: Option<&mut Gauge>,
    mut more: impl FnMut(usize) -> bool,
    mut line: impl FnMut(u64) -> String,
) -> Result<(), String> {
    sys::tight_timers();
    let Burst {
        size,
        in_flight,
        pause,
        timeout,
    } = burst;
    let mut done = 0;
    while more(done) {
        if let Some(resume) = quiet.resume(Instant::now()) {
            sleep_until(resume);
            continue;
        }
        let mut sent = 0;
        while sent < size || log.outstanding() > 0 {
            let n = (size - sent).min(in_flight.saturating_sub(log.outstanding()));
            if n > 0 {
                log.send(conn, Instant::now(), n, &mut line)
                    .map_err(|e| e.to_string())?;
                sent += n;
                continue;
            }
            match conn
                .recv(Instant::now() + timeout)
                .map_err(|e| e.to_string())?
            {
                Some(response) => {
                    log.receive(response, Instant::now())?;
                }
                None => return Ok(()),
            }
        }
        done += 1;
        if let Some(pause) = pause {
            let resume = Instant::now() + pause;
            quiet.hold(resume);
            if let Some(g) = gauge.as_deref_mut() {
                sleep_until(resume - GAUGE_LEAD);
                gauge_slice(g, resume);
            }
            sleep_until(resume);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_follow_the_schedule_or_the_holder() {
        let origin = Instant::now();
        let ms = Duration::from_millis;
        let q = Quiet::every(origin, ms(250), ms(50));
        assert_eq!(q.resume(origin), None);
        assert_eq!(q.resume(origin + ms(199)), None);
        assert_eq!(q.resume(origin + ms(200)), Some(origin + ms(250)));
        assert_eq!(q.resume(origin + ms(240)), Some(origin + ms(250)));
        assert_eq!(q.resume(origin + ms(250)), None);
        assert_eq!(q.resume(origin + ms(460)), Some(origin + ms(500)));

        let q = Quiet::held(origin);
        assert_eq!(q.resume(origin + ms(200)), None);
        q.hold(origin + ms(300));
        assert_eq!(q.resume(origin + ms(200)), Some(origin + ms(300)));
        assert_eq!(q.resume(origin + ms(300)), None);
    }

    #[test]
    fn ids_and_terminal_lines_are_recognised() {
        assert_eq!(response_id(r#"{"id":42,"ok":true,"epoch":3}"#), Some(42));
        assert_eq!(response_id(r#"{"ok":false}"#), None);
        assert!(is_terminal(r#"{"id":1,"ok":true,"epoch":0,"candidate":3}"#));
        assert!(!is_terminal(
            r#"{"id":1,"ok":true,"epoch":0,"op":"heatmap","offset":0,"tiles":[[0,1,0]]}"#
        ));
        assert!(is_terminal(
            r#"{"id":1,"ok":true,"epoch":0,"op":"heatmap","done":true,"tiles_total":1}"#
        ));
    }

    #[test]
    fn log_matches_out_of_order_and_streamed_responses() {
        let now = Instant::now();
        let mut log = Log::default();
        for _ in 0..2 {
            log.exchanges.push(Exchange {
                due: now,
                sent: now,
                done: None,
                response: String::new(),
            });
            log.outstanding += 1;
        }
        let batch = r#"{"id":0,"ok":true,"epoch":1,"op":"heatmap","offset":0,"tiles":[]}"#;
        assert_eq!(log.receive(batch.to_string(), now), Ok(false));
        assert_eq!(
            log.receive(r#"{"id":1,"ok":true,"epoch":1}"#.to_string(), now),
            Ok(true)
        );
        let done = r#"{"id":0,"ok":true,"epoch":1,"op":"heatmap","done":true}"#;
        assert_eq!(log.receive(done.to_string(), now), Ok(true));
        assert_eq!(log.outstanding(), 0);
        assert_eq!(log.exchanges[0].response.lines().count(), 2);
        // A duplicate or unknown id is a protocol failure.
        assert!(log
            .receive(r#"{"id":1,"ok":true}"#.to_string(), now)
            .is_err());
        assert!(log
            .receive(r#"{"id":9,"ok":true}"#.to_string(), now)
            .is_err());
    }
}
