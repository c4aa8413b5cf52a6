//! The TCP server: accept loop, per-connection reader/writer threads,
//! the single state-writer thread, and the query worker pool.
//!
//! ## Thread topology
//!
//! ```text
//! accept ──spawns──► connection reader ──try_submit──► AdmissionQueue ──► workers (N)
//!                        │        ▲                                          │
//!                        │        └────────── reply mpsc ◄───────────────────┘
//!                        │ try_send
//!                        ▼
//!                    ingest sync_channel ──► writer (1) ──publish──► epoch chain
//! ```
//!
//! * **Readers never block on admission**: a full queue sheds the
//!   request with a typed `overloaded` response.
//! * **Workers batch**: each drained batch is answered against one
//!   epoch snapshot; from-scratch solves are shared across the batch.
//! * **The writer is unique**: updates apply in arrival order to a
//!   clone of the current world, published as the next epoch.
//! * **Shutdown drains**: the `shutdown` wire command (or
//!   [`ServerHandle::shutdown`]) stops admission; every already-admitted
//!   request is still answered before [`ServerHandle::join`] returns.
//!   Worker panics propagate to `join` via `resume_unwind`, mirroring
//!   the discipline of `pinocchio_core::parallel`.

use crate::ingest::{SolveOutcome, World};
use crate::scheduler::{AdmissionQueue, BatchWait, Job, SubmitError};
use crate::shard::ShardedWorld;
use crate::stats::ServeStats;
use crate::store::{Publisher, Reader, Snapshot};
use crate::wire::{self, ErrorCode, QueryOp, Request, UpdateOp, WireError};
use pinocchio_core::Algorithm;
use serde_json::{json, Map};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to poll the shutdown flag.
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_QUANTUM: Duration = Duration::from_millis(10);

/// How long an idle worker waits for jobs before waking to advance its
/// epoch cursor (and re-check for queue closure).
const WORKER_IDLE_QUANTUM: Duration = Duration::from_millis(100);

/// Hard cap on one request line's byte length. A connection that exceeds
/// it without sending a newline gets a `malformed` rejection and is
/// closed (framing past the cap is unrecoverable), so a client streaming
/// newline-free bytes cannot grow a buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tunables. `Default` gives sensible test/CI values; the CLI
/// exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Bounded admission-queue capacity (also the ingest channel bound).
    pub queue_capacity: usize,
    /// Maximum jobs a worker drains per batch.
    pub batch_max: usize,
    /// Query worker threads.
    pub workers: usize,
    /// Threads handed to the parallel solvers for `solve` requests.
    pub solve_threads: usize,
    /// In-process shard count. `1` (the default) serves the world
    /// unsharded; larger values partition objects across shard worlds
    /// by a stable hash of the wire object id. Shard-transparent on the
    /// wire — answers are bit-identical for every value.
    pub shards: usize,
    /// A connection with no complete request line for this long is
    /// closed.
    pub idle_timeout: Duration,
    /// Write timeout on response sockets.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 256,
            batch_max: 16,
            workers: 2,
            solve_threads: 2,
            shards: 1,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// State shared by every server thread.
struct Shared {
    queue: AdmissionQueue,
    stats: Mutex<ServeStats>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    fn bump(&self, f: impl FnOnce(&mut ServeStats)) {
        let mut guard = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard);
    }

    fn draining(&self) -> bool {
        // ordering: pairs with the Release store in `begin_shutdown`; the
        // flag only gates admission — consistency of served state comes
        // from the epoch chain, not from this flag.
        self.shutdown.load(Ordering::Acquire)
    }

    fn begin_shutdown(&self) {
        // ordering: Release so that threads observing the flag (Acquire
        // loads in `draining`) also observe everything done before the
        // shutdown request; see `draining` for why nothing else rides on
        // this flag.
        self.shutdown.store(true, Ordering::Release);
    }
}

/// One admitted update travelling to the writer thread.
struct UpdateMsg {
    id: Option<u64>,
    op: UpdateOp,
    reply: Sender<String>,
}

/// A running server. Obtain with [`serve`]; stop with
/// [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or a client's
/// `shutdown` wire command followed by `join`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    ingest: Option<SyncSender<UpdateMsg>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts draining: no new requests are admitted. Idempotent;
    /// equivalent to a client sending the `shutdown` wire command.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits until a drain is triggered — by a client's `shutdown` wire
    /// command or a prior [`Self::shutdown`] call — then waits for it to
    /// finish and returns the final merged counters. Joins, in order:
    /// the accept thread (which joins every connection), the worker pool
    /// (after closing the admission queue), and the writer. A panic on
    /// any server thread resumes here.
    pub fn join(mut self) -> ServeStats {
        if let Some(accept) = self.accept.take() {
            join_thread(accept);
        }
        // Connections are gone, so no submission can race the close; the
        // workers drain what was admitted and then see `None`.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            join_thread(worker);
        }
        // Dropping the last ingest sender disconnects the writer's
        // channel once it has drained every queued update.
        drop(self.ingest.take());
        if let Some(writer) = self.writer.take() {
            join_thread(writer);
        }
        let mut stats = *self.shared.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.queue_high_water = stats.queue_high_water.max(self.shared.queue.high_water());
        stats
    }
}

fn join_thread<T>(handle: JoinHandle<T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Binds and spawns the full server over `world`, partitioned across
/// [`ServerConfig::shards`] in-process shard worlds. Returns once the
/// listener is live; all serving happens on background threads.
pub fn serve(world: World, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let sharded = ShardedWorld::from_world(world, config.shards)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
    let (publisher, reader) = Publisher::new(sharded);
    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(config.queue_capacity),
        stats: Mutex::new(ServeStats::default()),
        shutdown: AtomicBool::new(false),
        config: config.clone(),
    });

    let (ingest_tx, ingest_rx) = std::sync::mpsc::sync_channel(config.queue_capacity);
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || writer_loop(publisher, ingest_rx, &shared))
    };
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let reader = reader.clone();
            std::thread::spawn(move || worker_loop(&shared, reader))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        let ingest = ingest_tx.clone();
        let reader = reader.clone();
        std::thread::spawn(move || accept_loop(&listener, &shared, &ingest, reader))
    };

    Ok(ServerHandle {
        addr,
        shared,
        ingest: Some(ingest_tx),
        accept: Some(accept),
        workers,
        writer: Some(writer),
    })
}

// ---- accept + connections ---------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    ingest: &SyncSender<UpdateMsg>,
    mut reader: Reader<ShardedWorld>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.draining() {
        // Keep this long-lived cursor at the chain head: the store
        // reclaims snapshots only behind the oldest cursor, so a parked
        // cursor would pin every epoch published for the server's
        // lifetime. Advancing here also hands new connections a reader
        // that starts at the newest epoch instead of epoch 0.
        let _ = reader.latest();
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are single short lines; without nodelay a
                // serial request/response client stalls ~40 ms per
                // round-trip on Nagle + delayed ACK.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let ingest = ingest.clone();
                let reader = reader.clone();
                connections.push(std::thread::spawn(move || {
                    connection_loop(stream, &shared, &ingest, reader);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_QUANTUM),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for connection in connections {
        join_thread(connection);
    }
}

fn connection_loop(
    stream: TcpStream,
    shared: &Arc<Shared>,
    ingest: &SyncSender<UpdateMsg>,
    mut epoch_reader: Reader<ShardedWorld>,
) {
    if stream.set_read_timeout(Some(POLL_QUANTUM)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(Some(shared.config.write_timeout));

    // All responses for this connection funnel through one writer
    // thread, so pipelined requests cannot interleave partial lines.
    let (reply_tx, reply_rx) = channel::<String>();
    let response_writer = std::thread::spawn(move || write_loop(write_half, &reply_rx));

    let mut buf_reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    while !shared.draining() {
        // `line` persists across timeouts: a poll wake-up mid-line keeps
        // the partial bytes — raw, so a timeout landing inside a
        // multi-byte UTF-8 character cannot discard them — and keeps
        // appending.
        match read_bounded_line(&mut buf_reader, &mut line) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Line) => {
                match std::str::from_utf8(&line) {
                    Ok(text) => {
                        let trimmed = text.trim();
                        if !trimmed.is_empty() {
                            handle_line(trimmed, shared, ingest, &mut epoch_reader, &reply_tx);
                        }
                    }
                    Err(_) => {
                        shared.bump(|s| {
                            s.lines_received += 1;
                            s.malformed += 1;
                        });
                        let e = WireError::new(
                            ErrorCode::Malformed,
                            "request line is not valid UTF-8".to_string(),
                        );
                        let _ = reply_tx.send(wire::response_err(None, &e));
                    }
                }
                line.clear();
                last_activity = Instant::now();
            }
            Ok(LineRead::TooLong) => {
                shared.bump(|s| {
                    s.lines_received += 1;
                    s.malformed += 1;
                });
                let e = WireError::new(
                    ErrorCode::Malformed,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = reply_tx.send(wire::response_err(None, &e));
                break;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Advance this connection's cursor while idle so it never
                // pins old epochs (reclamation trails the oldest cursor).
                let _ = epoch_reader.latest();
                if last_activity.elapsed() >= shared.config.idle_timeout {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // In-flight jobs still hold reply senders; the response writer exits
    // only after the last of them is answered, so draining never drops
    // an admitted request's response.
    drop(reply_tx);
    join_thread(response_writer);
}

/// Outcome of one [`read_bounded_line`] call.
enum LineRead {
    /// A complete `\n`-terminated line (or the final unterminated line
    /// before EOF) is in the buffer.
    Line,
    /// Clean EOF with no buffered bytes.
    Eof,
    /// The buffer exceeded [`MAX_LINE_BYTES`] before a newline arrived.
    TooLong,
}

/// Reads one newline-terminated line into `line` as raw bytes.
///
/// Unlike `BufRead::read_line`, a read timeout leaves every byte read so
/// far in `line` for the next poll — even mid UTF-8 character — and the
/// buffer is capped: growth past [`MAX_LINE_BYTES`] reports `TooLong`
/// instead of continuing unbounded.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    loop {
        let (used, complete) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    line.extend_from_slice(&available[..=newline]);
                    (newline + 1, true)
                }
                None => {
                    line.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(used);
        if complete {
            return Ok(LineRead::Line);
        }
        if line.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
    }
}

fn write_loop(mut stream: TcpStream, replies: &Receiver<String>) {
    while let Ok(response) = replies.recv() {
        if stream
            .write_all(response.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .is_err()
        {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn handle_line(
    line: &str,
    shared: &Arc<Shared>,
    ingest: &SyncSender<UpdateMsg>,
    epoch_reader: &mut Reader<ShardedWorld>,
    reply: &Sender<String>,
) {
    shared.bump(|s| s.lines_received += 1);
    let request = match wire::parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            shared.bump(|s| s.malformed += 1);
            let _ = reply.send(wire::response_err(None, &e));
            return;
        }
    };
    match request {
        Request::Shutdown { id } => {
            shared.bump(|s| s.control += 1);
            shared.begin_shutdown();
            let mut body = Map::new();
            body.insert("draining".to_string(), json!(true));
            let _ = reply.send(wire::response_ok(id, epoch_reader.latest().epoch, body));
        }
        Request::Update { id, op } => {
            if shared.draining() {
                reject_draining(shared, reply, id);
                return;
            }
            let msg = UpdateMsg {
                id,
                op,
                reply: reply.clone(),
            };
            match ingest.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    shared.bump(|s| s.shed += 1);
                    let e = WireError::new(
                        ErrorCode::Overloaded,
                        format!(
                            "ingest queue full ({} pending updates); retry later",
                            shared.config.queue_capacity
                        ),
                    );
                    let _ = reply.send(wire::response_err(msg.id, &e));
                }
                Err(TrySendError::Disconnected(msg)) => {
                    let _ = msg; // writer is gone: the server is draining
                    reject_draining(shared, reply, id);
                }
            }
        }
        Request::Query { id, op } => {
            if shared.draining() {
                reject_draining(shared, reply, id);
                return;
            }
            let job = Job {
                id,
                op,
                enqueued: Instant::now(),
                reply: reply.clone(),
            };
            match shared.queue.try_submit(job) {
                Ok(()) => {}
                Err(e @ SubmitError::Overloaded { .. }) => {
                    shared.bump(|s| s.shed += 1);
                    let _ = reply.send(wire::response_err(id, &WireError::from(e)));
                }
                Err(SubmitError::Closed) => reject_draining(shared, reply, id),
            }
        }
    }
}

fn reject_draining(shared: &Arc<Shared>, reply: &Sender<String>, id: Option<u64>) {
    shared.bump(|s| s.rejected_shutdown += 1);
    let e = WireError::new(ErrorCode::ShuttingDown, "server is draining".to_string());
    let _ = reply.send(wire::response_err(id, &e));
}

// ---- the writer thread -------------------------------------------------

fn writer_loop(
    mut publisher: Publisher<ShardedWorld>,
    updates: Receiver<UpdateMsg>,
    shared: &Shared,
) {
    while let Ok(first) = updates.recv() {
        // Batch whatever else is already queued (bounded by batch_max)
        // so one world clone and one epoch publication cover them all.
        let mut batch = vec![first];
        while batch.len() < shared.config.batch_max.max(1) {
            match updates.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        let mut world = publisher.current().state.clone();
        let mut applied = 0u64;
        let mut errors = 0u64;
        let outcomes: Vec<Result<(), WireError>> = batch
            .iter()
            .map(|msg| {
                let outcome = world.apply(&msg.op);
                match outcome {
                    Ok(()) => applied += 1,
                    Err(_) => errors += 1,
                }
                outcome
            })
            .collect();
        // Publish once per batch; a batch of pure failures changes
        // nothing and publishes nothing.
        let epoch = if applied > 0 {
            publisher.publish(world)
        } else {
            publisher.epoch()
        };
        for (msg, outcome) in batch.into_iter().zip(outcomes) {
            let response = match outcome {
                Ok(()) => {
                    let mut body = Map::new();
                    body.insert("applied".to_string(), json!(true));
                    wire::response_ok(msg.id, epoch, body)
                }
                Err(e) => wire::response_err(msg.id, &e),
            };
            let _ = msg.reply.send(response);
        }
        shared.bump(|s| {
            s.updates_applied += applied;
            s.update_errors += errors;
            if applied > 0 {
                s.epochs_published += 1;
            }
        });
    }
}

// ---- the worker pool ---------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, mut reader: Reader<ShardedWorld>) {
    loop {
        let batch = match shared
            .queue
            .next_batch_timeout(shared.config.batch_max, WORKER_IDLE_QUANTUM)
        {
            BatchWait::Batch(batch) => batch,
            BatchWait::TimedOut => {
                // A worker parked between batches would otherwise pin
                // every epoch published since its last one; keep its
                // cursor at the head while the queue is quiet.
                let _ = reader.latest();
                continue;
            }
            BatchWait::Closed => break,
        };
        // One snapshot per batch: every job in it is answered on the
        // same epoch, and `solve` results are shared across the batch.
        let snapshot = reader.latest();
        let mut local = ServeStats {
            batches: 1,
            batched_jobs: batch.len() as u64,
            ..ServeStats::default()
        };
        let mut solve_memo: Vec<(Algorithm, Result<SolveOutcome, WireError>)> = Vec::new();
        for job in batch {
            let response = answer(&job, &snapshot, &mut solve_memo, &mut local, shared);
            let micros = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
            local.record_latency(micros);
            let _ = job.reply.send(response);
        }
        shared.bump(|s| *s += local);
    }
}

fn answer(
    job: &Job,
    snapshot: &Snapshot<ShardedWorld>,
    solve_memo: &mut Vec<(Algorithm, Result<SolveOutcome, WireError>)>,
    local: &mut ServeStats,
    shared: &Arc<Shared>,
) -> String {
    let world = &snapshot.state;
    let outcome: Result<Map, WireError> = match job.op {
        QueryOp::Best => {
            local.queries_best += 1;
            world.best().and_then(|best| match best {
                Some((candidate, location, influence)) => {
                    let mut body = Map::new();
                    body.insert("candidate".to_string(), json!(candidate));
                    body.insert("x".to_string(), json!(location.x));
                    body.insert("y".to_string(), json!(location.y));
                    body.insert("influence".to_string(), json!(influence));
                    Ok(body)
                }
                None => Err(WireError::new(
                    ErrorCode::Empty,
                    "no live candidates".to_string(),
                )),
            })
        }
        QueryOp::TopK { k } => {
            local.queries_top_k += 1;
            world.top_k(k).map(|entries| {
                let rendered: Vec<serde_json::Value> = entries
                    .into_iter()
                    .map(|(candidate, location, influence)| {
                        json!({
                            "candidate": candidate,
                            "x": location.x,
                            "y": location.y,
                            "influence": influence,
                        })
                    })
                    .collect();
                let mut body = Map::new();
                body.insert("entries".to_string(), serde_json::Value::Array(rendered));
                body
            })
        }
        QueryOp::InfluenceOf { candidate } => {
            local.queries_influence_of += 1;
            world.influence_of(candidate).map(|influence| {
                let mut body = Map::new();
                body.insert("candidate".to_string(), json!(candidate));
                body.insert("influence".to_string(), json!(influence));
                body
            })
        }
        QueryOp::Solve { algorithm } => {
            local.queries_solve += 1;
            let memoised = solve_memo.iter().find(|(a, _)| *a == algorithm);
            let (result, from_batch_mate) = match memoised {
                Some((_, result)) => (result.clone(), true),
                None => {
                    let result = world.solve(algorithm, shared.config.solve_threads);
                    local.solve_runs += 1;
                    solve_memo.push((algorithm, result.clone()));
                    (result, false)
                }
            };
            result.map(|o| {
                let mut body = Map::new();
                body.insert("algorithm".to_string(), json!(format!("{:?}", o.algorithm)));
                body.insert("candidate".to_string(), json!(o.candidate));
                body.insert("x".to_string(), json!(o.location.x));
                body.insert("y".to_string(), json!(o.location.y));
                body.insert("influence".to_string(), json!(o.influence));
                body.insert("shared".to_string(), json!(from_batch_mate));
                body
            })
        }
        QueryOp::Heatmap { resolution } => {
            local.queries_heatmap += 1;
            world.heatmap(resolution).map(|h| {
                // Stream the grid as bounded batch lines through the
                // connection's writer thread. The reply channel is
                // unbounded and the writer breaks on the first failed
                // write, so a slow or mid-stream-disconnected client
                // never blocks this worker — the remaining sends just
                // land in a channel whose receiver drains and drops
                // them (see `write_loop`).
                let mut batches = 0u64;
                for (i, chunk) in h.tiles.chunks(wire::TILES_PER_BATCH).enumerate() {
                    let tiles: Vec<serde_json::Value> = chunk
                        .iter()
                        .map(|t| json!([t.lo, t.hi, t.sample]))
                        .collect();
                    let mut body = Map::new();
                    body.insert("op".to_string(), json!("heatmap"));
                    body.insert("offset".to_string(), json!(i * wire::TILES_PER_BATCH));
                    body.insert("tiles".to_string(), serde_json::Value::Array(tiles));
                    let _ = job
                        .reply
                        .send(wire::response_ok(job.id, snapshot.epoch, body));
                    batches += 1;
                }
                // The terminal line is the worker's normal return value;
                // `done` appears on it and nowhere else.
                let mut body = Map::new();
                body.insert("op".to_string(), json!("heatmap"));
                body.insert("done".to_string(), json!(true));
                body.insert("resolution".to_string(), json!(h.resolution));
                body.insert(
                    "frame".to_string(),
                    json!([
                        h.frame.lo().x,
                        h.frame.lo().y,
                        h.frame.hi().x,
                        h.frame.hi().y
                    ]),
                );
                body.insert("tiles_total".to_string(), json!(h.tiles.len()));
                body.insert("batches".to_string(), json!(batches));
                body.insert(
                    "cells_resolved_ia".to_string(),
                    json!(h.stats.cells_resolved_ia),
                );
                body.insert(
                    "cells_resolved_nib".to_string(),
                    json!(h.stats.cells_resolved_nib),
                );
                body.insert("cells_refined".to_string(), json!(h.stats.cells_refined));
                body
            })
        }
        QueryOp::TopRegion { k, resolution } => {
            local.queries_top_region += 1;
            world.top_region(k, resolution).map(|r| {
                let cells: Vec<serde_json::Value> = r
                    .cells
                    .iter()
                    .map(|c| {
                        json!({
                            "tile": c.tile,
                            "x": c.center.x,
                            "y": c.center.y,
                            "influence": c.influence,
                        })
                    })
                    .collect();
                let mut body = Map::new();
                body.insert("op".to_string(), json!("top_region"));
                body.insert("resolution".to_string(), json!(r.resolution));
                body.insert("cells".to_string(), serde_json::Value::Array(cells));
                body
            })
        }
        QueryOp::Stats => {
            local.queries_stats += 1;
            // Flush this worker's partial first so the report includes
            // the current batch up to this job.
            let view = {
                let mut guard = shared.stats.lock().unwrap_or_else(|p| p.into_inner());
                *guard += std::mem::take(local);
                *guard
            };
            let mut view = view;
            view.queue_high_water = view.queue_high_water.max(shared.queue.high_water());
            let mut body = Map::new();
            body.insert("stats".to_string(), view.to_json());
            body.insert("queue_depth".to_string(), json!(shared.queue.depth()));
            // Per-shard counters of the answering epoch: topology is
            // wire-transparent everywhere else, but operators need to
            // see the partition balance and routing volume.
            let shards: Vec<serde_json::Value> = world
                .shard_summaries()
                .iter()
                .map(|s| {
                    json!({
                        "shard": s.shard,
                        "objects": s.objects,
                        "candidates": s.candidates,
                        "updates_routed": s.updates_routed,
                    })
                })
                .collect();
            body.insert("shards".to_string(), serde_json::Value::Array(shards));
            Ok(body)
        }
        QueryOp::Ping => {
            local.queries_ping += 1;
            Ok(Map::new())
        }
    };
    match outcome {
        Ok(body) => wire::response_ok(job.id, snapshot.epoch, body),
        Err(e) => wire::response_err(job.id, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_geo::Point;
    use serde_json::Value;
    use std::io::BufRead;

    /// Lockstep NDJSON client: one request out, one response in.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let writer = stream.try_clone().expect("clone");
            Client {
                reader: BufReader::new(stream),
                writer,
            }
        }

        fn roundtrip(&mut self, request: &str) -> Value {
            self.writer
                .write_all(request.as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .expect("write request");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response");
            serde_json::from_str(line.trim()).expect("valid response JSON")
        }

        /// Sends one request and reads response lines until a terminal
        /// line arrives (one with `"done":true`, or any error / plain
        /// single-line response). Lockstep, so every line read belongs
        /// to the one in-flight request.
        fn stream(&mut self, request: &str) -> Vec<Value> {
            self.writer
                .write_all(request.as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .expect("write request");
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                self.reader.read_line(&mut line).expect("read response");
                let v: Value = serde_json::from_str(line.trim()).expect("valid response JSON");
                let terminal = v.get("ok").and_then(Value::as_bool) != Some(true)
                    || v.get("done").and_then(Value::as_bool) == Some(true)
                    || v.get("tiles").is_none();
                lines.push(v);
                if terminal {
                    return lines;
                }
            }
        }
    }

    fn test_world() -> World {
        let mut world = World::new(0.7);
        for (id, (x, y)) in [(0.0, 0.0), (10.0, 0.0), (0.2, 0.1)].iter().enumerate() {
            world
                .apply(&UpdateOp::InsertCandidate {
                    candidate: id as u64,
                    location: Point::new(*x, *y),
                })
                .expect("insert candidate");
        }
        for id in 0..4u64 {
            world
                .apply(&UpdateOp::InsertObject {
                    object: id,
                    positions: vec![Point::new(0.05 * id as f64, 0.0)],
                })
                .expect("insert object");
        }
        world
    }

    fn get_u64(v: &Value, key: &str) -> u64 {
        v.get(key).and_then(Value::as_u64).unwrap_or_else(|| {
            panic!("missing u64 field {key} in {v}");
        })
    }

    #[test]
    fn end_to_end_queries_updates_and_shutdown() {
        let handle = serve(test_world(), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr());

        let pong = client.roundtrip(r#"{"v":1,"id":1,"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(get_u64(&pong, "epoch"), 0);

        let best = client.roundtrip(r#"{"v":1,"id":2,"op":"best"}"#);
        let initial_best = get_u64(&best, "candidate");
        let initial_influence = get_u64(&best, "influence");
        assert!(initial_influence >= 1);

        // Every algorithm agrees with `best`, bit for bit.
        for algo in ["na", "pin", "pin-vo", "pin-vo*"] {
            let solved = client.roundtrip(&format!(r#"{{"v":1,"op":"solve","algo":"{algo}"}}"#));
            assert_eq!(get_u64(&solved, "candidate"), initial_best, "{algo}");
            assert_eq!(get_u64(&solved, "influence"), initial_influence, "{algo}");
        }

        // A burst of objects near candidate 1 flips the optimum.
        for id in 10..16u64 {
            let ack = client.roundtrip(&format!(
                r#"{{"v":1,"id":{id},"op":"insert_object","object":{id},"positions":[[10.0,0.05]]}}"#
            ));
            assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true), "{ack}");
            assert!(get_u64(&ack, "epoch") >= 1);
        }
        let best = client.roundtrip(r#"{"v":1,"op":"best"}"#);
        assert_eq!(get_u64(&best, "candidate"), 1);
        assert_eq!(get_u64(&best, "influence"), 6);

        // top_k sees all three candidates, ranked.
        let ranking = client.roundtrip(r#"{"v":1,"op":"top_k","k":10}"#);
        let entries = ranking
            .get("entries")
            .and_then(Value::as_array)
            .expect("entries");
        assert_eq!(entries.len(), 3);
        assert_eq!(get_u64(&entries[0], "candidate"), 1);

        // Typed errors reach the client.
        let unknown = client.roundtrip(r#"{"v":1,"op":"influence_of","candidate":99}"#);
        assert_eq!(unknown.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            unknown
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("unknown_candidate")
        );
        let dup =
            client.roundtrip(r#"{"v":1,"op":"insert_object","object":10,"positions":[[0.0,0.0]]}"#);
        assert_eq!(
            dup.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("duplicate_object")
        );
        let garbage = client.roundtrip("not json at all");
        assert_eq!(
            garbage
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("malformed")
        );

        // In-band stats reflect the traffic so far.
        let stats = client.roundtrip(r#"{"v":1,"op":"stats"}"#);
        let block = stats.get("stats").expect("stats body");
        assert!(get_u64(block, "lines_received") >= 15);
        assert_eq!(get_u64(block, "updates_applied"), 6);
        assert_eq!(get_u64(block, "update_errors"), 1);
        assert_eq!(get_u64(block, "malformed"), 1);
        assert!(get_u64(block, "epochs_published") >= 1);

        // Graceful shutdown: the command acks, then the server drains.
        let ack = client.roundtrip(r#"{"v":1,"id":99,"op":"shutdown"}"#);
        assert_eq!(ack.get("draining").and_then(Value::as_bool), Some(true));
        let final_stats = handle.join();
        assert_eq!(final_stats.accounted_lines(), final_stats.lines_received);
        assert_eq!(final_stats.queries_completed(), final_stats.latency_total());
        assert_eq!(final_stats.control, 1);
    }

    #[test]
    fn sharded_server_matches_unsharded_and_reports_partition_stats() {
        // The same world behind a 1-shard and a 4-shard server, fed the
        // same update stream: every answer must agree field for field
        // (the wire protocol is shard-transparent), and only the stats
        // body reveals the partition.
        let handle1 = serve(test_world(), ServerConfig::default()).expect("bind");
        let handle4 = serve(
            test_world(),
            ServerConfig {
                shards: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut c1 = Client::connect(handle1.addr());
        let mut c4 = Client::connect(handle4.addr());

        let inserted = 20u64;
        for id in 20..20 + inserted {
            let req = format!(
                r#"{{"v":1,"op":"insert_object","object":{id},"positions":[[{}.0,0.5]]}}"#,
                id % 12
            );
            for (label, client) in [("unsharded", &mut c1), ("sharded", &mut c4)] {
                let ack = client.roundtrip(&req);
                assert_eq!(
                    ack.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "{label}: {ack}"
                );
            }
        }

        for req in [
            r#"{"v":1,"op":"best"}"#,
            r#"{"v":1,"op":"top_k","k":3}"#,
            r#"{"v":1,"op":"influence_of","candidate":2}"#,
        ] {
            let a = c1.roundtrip(req);
            let b = c4.roundtrip(req);
            assert_eq!(a, b, "answers diverged for {req}");
        }
        for algo in ["na", "pin", "pin-vo", "pin-vo*"] {
            let req = format!(r#"{{"v":1,"op":"solve","algo":"{algo}"}}"#);
            let a = c1.roundtrip(&req);
            let b = c4.roundtrip(&req);
            // The `shared` flag is batch-timing-dependent; every
            // answer-bearing field must agree bit for bit.
            for field in ["candidate", "influence", "epoch"] {
                assert_eq!(get_u64(&a, field), get_u64(&b, field), "{algo} {field}");
            }
            for field in ["x", "y"] {
                let fa = a.get(field).and_then(Value::as_f64).expect("f64 field");
                let fb = b.get(field).and_then(Value::as_f64).expect("f64 field");
                assert_eq!(fa.to_bits(), fb.to_bits(), "{algo} {field}");
            }
            assert_eq!(
                a.get("algorithm").and_then(Value::as_str),
                b.get("algorithm").and_then(Value::as_str)
            );
        }

        let stats = c4.roundtrip(r#"{"v":1,"op":"stats"}"#);
        let shards = stats
            .get("shards")
            .and_then(Value::as_array)
            .expect("stats body lists shards");
        assert_eq!(shards.len(), 4);
        let objects: u64 = shards.iter().map(|s| get_u64(s, "objects")).sum();
        assert_eq!(objects, 4 + inserted, "partition covers every object");
        let routed: u64 = shards.iter().map(|s| get_u64(s, "updates_routed")).sum();
        assert_eq!(routed, inserted, "every object update was routed once");
        for s in shards {
            assert_eq!(get_u64(s, "candidates"), 3, "broadcast candidate set");
        }
        // The unsharded server reports the trivial 1-shard topology.
        let stats = c1.roundtrip(r#"{"v":1,"op":"stats"}"#);
        let shards = stats
            .get("shards")
            .and_then(Value::as_array)
            .expect("stats body lists shards");
        assert_eq!(shards.len(), 1);
        assert_eq!(get_u64(&shards[0], "objects"), 4 + inserted);

        for handle in [handle1, handle4] {
            handle.shutdown();
            let stats = handle.join();
            assert_eq!(stats.updates_applied, inserted);
            assert_eq!(stats.accounted_lines(), stats.lines_received);
        }
    }

    #[test]
    fn heatmap_streams_batches_with_id_echo_and_a_terminal_done_line() {
        let handle = serve(test_world(), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr());

        let lines = client.stream(r#"{"v":1,"id":42,"op":"heatmap","resolution":64}"#);
        let (terminal, batches) = lines.split_last().expect("at least the terminal line");
        // 64×64 = 4096 tiles in ceil(4096/512) = 8 batches.
        assert_eq!(batches.len(), 8);
        let mut tiles_seen = 0usize;
        for (i, batch) in batches.iter().enumerate() {
            assert_eq!(batch.get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(get_u64(batch, "id"), 42, "id echoed on every batch");
            assert_eq!(get_u64(batch, "epoch"), 0, "epoch echoed on every batch");
            assert_eq!(batch.get("op").and_then(Value::as_str), Some("heatmap"));
            assert_eq!(get_u64(batch, "offset") as usize, i * 512);
            assert!(
                batch.get("done").is_none(),
                "done only on the terminal line"
            );
            let tiles = batch
                .get("tiles")
                .and_then(Value::as_array)
                .expect("tiles array");
            assert!(tiles.len() <= 512);
            tiles_seen += tiles.len();
            for tile in tiles {
                let t = tile.as_array().expect("[lo,hi,sample] triple");
                assert_eq!(t.len(), 3);
                let (lo, hi, sample) = (
                    t[0].as_u64().unwrap(),
                    t[1].as_u64().unwrap(),
                    t[2].as_u64().unwrap(),
                );
                assert!(lo <= sample && sample <= hi, "band must contain the sample");
            }
        }
        assert_eq!(terminal.get("done").and_then(Value::as_bool), Some(true));
        assert_eq!(get_u64(terminal, "id"), 42);
        assert_eq!(get_u64(terminal, "resolution"), 64);
        assert_eq!(get_u64(terminal, "tiles_total") as usize, tiles_seen);
        assert_eq!(get_u64(terminal, "batches"), 8);
        assert_eq!(tiles_seen, 64 * 64);
        let frame = terminal
            .get("frame")
            .and_then(Value::as_array)
            .expect("frame [x0,y0,x1,y1]");
        assert_eq!(frame.len(), 4);

        // top_region is a plain single-line response.
        let region = client.roundtrip(r#"{"v":1,"id":43,"op":"top_region","k":3,"resolution":64}"#);
        assert_eq!(region.get("ok").and_then(Value::as_bool), Some(true));
        let cells = region
            .get("cells")
            .and_then(Value::as_array)
            .expect("cells");
        assert_eq!(cells.len(), 3);
        for pair in cells.windows(2) {
            assert!(
                get_u64(&pair[0], "influence") >= get_u64(&pair[1], "influence"),
                "cells ranked influence-descending"
            );
        }

        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.queries_heatmap, 1, "one query, however many batches");
        assert_eq!(stats.queries_top_region, 1);
        assert_eq!(stats.accounted_lines(), stats.lines_received);
        assert_eq!(stats.queries_completed(), stats.latency_total());
    }

    #[test]
    fn sharded_heatmap_answers_match_the_unsharded_server() {
        let handle1 = serve(test_world(), ServerConfig::default()).expect("bind");
        let handle4 = serve(
            test_world(),
            ServerConfig {
                shards: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut c1 = Client::connect(handle1.addr());
        let mut c4 = Client::connect(handle4.addr());

        let collect_tiles = |lines: &[Value]| -> Vec<(u64, u64, u64)> {
            lines[..lines.len() - 1]
                .iter()
                .flat_map(|batch| {
                    batch
                        .get("tiles")
                        .and_then(Value::as_array)
                        .expect("tiles")
                        .iter()
                        .map(|t| {
                            let t = t.as_array().expect("triple");
                            (
                                t[0].as_u64().unwrap(),
                                t[1].as_u64().unwrap(),
                                t[2].as_u64().unwrap(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let req = r#"{"v":1,"id":1,"op":"heatmap","resolution":32}"#;
        let a = c1.stream(req);
        let b = c4.stream(req);
        assert_eq!(
            a.last().unwrap().get("frame"),
            b.last().unwrap().get("frame"),
            "global frame is shard-transparent"
        );
        let ta = collect_tiles(&a);
        let tb = collect_tiles(&b);
        assert_eq!(ta.len(), 32 * 32);
        assert_eq!(ta.len(), tb.len());
        for (i, (x, y)) in ta.iter().zip(&tb).enumerate() {
            assert_eq!(x.2, y.2, "tile {i}: samples are exact on both");
            assert!(x.0 <= x.2 && x.2 <= x.1, "tile {i}: unsharded band sound");
            assert!(y.0 <= y.2 && y.2 <= y.1, "tile {i}: sharded band sound");
        }

        // top_region is exact, so the whole response body must agree.
        let req = r#"{"v":1,"op":"top_region","k":5,"resolution":32}"#;
        let a = c1.roundtrip(req);
        let b = c4.roundtrip(req);
        assert_eq!(a.get("cells"), b.get("cells"));
        assert_eq!(a.get("resolution"), b.get("resolution"));

        for handle in [handle1, handle4] {
            handle.shutdown();
            handle.join();
        }
    }

    #[test]
    fn mid_stream_client_disconnect_leaves_the_server_healthy() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = serve(test_world(), config).expect("bind");
        {
            // Request a large stream (256×256 = 128 batches), read one
            // batch line, then drop the socket mid-stream. The worker
            // must finish the job without blocking — the dead
            // connection's writer drains and drops the rest.
            let stream = TcpStream::connect(handle.addr()).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            writeln!(
                writer,
                r#"{{"v":1,"id":9,"op":"heatmap","resolution":256}}"#
            )
            .expect("write request");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("first batch");
            let v: Value = serde_json::from_str(line.trim()).expect("json");
            assert_eq!(get_u64(&v, "id"), 9);
            assert!(v.get("tiles").is_some());
        } // both socket halves dropped here — mid-stream disconnect
          // With one worker, a healthy follow-up proves the pool was not
          // wedged by the abandoned stream.
        let mut client = Client::connect(handle.addr());
        let pong = client.roundtrip(r#"{"v":1,"id":10,"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
        let best = client.roundtrip(r#"{"v":1,"op":"best"}"#);
        assert_eq!(best.get("ok").and_then(Value::as_bool), Some(true));
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.queries_heatmap, 1, "the abandoned stream completed");
        assert_eq!(stats.queries_ping, 1);
        assert_eq!(stats.accounted_lines(), stats.lines_received);
        assert_eq!(stats.queries_completed(), stats.latency_total());
    }

    #[test]
    fn overload_sheds_with_typed_rejections() {
        // One worker, tiny queue: a pipelined burst must shed some
        // requests, and shed + completed must account for the burst.
        // Once the burst drains, the answers are still exact, behind
        // one shard and behind the 4-shard coordinator alike.
        let (want_id, want_loc, want_inf) =
            test_world().best().expect("best").expect("non-empty world");
        for shards in [1, 4] {
            let config = ServerConfig {
                queue_capacity: 2,
                workers: 1,
                batch_max: 1,
                shards,
                ..ServerConfig::default()
            };
            let handle = serve(test_world(), config).expect("bind");
            let mut client = Client::connect(handle.addr());
            let burst = 64;
            for i in 0..burst {
                // `solve` is the slowest op, keeping the worker busy.
                writeln!(
                    client.writer,
                    r#"{{"v":1,"id":{i},"op":"solve","algo":"na"}}"#
                )
                .expect("write");
            }
            let mut completed = 0u64;
            let mut shed = 0u64;
            for _ in 0..burst {
                let mut line = String::new();
                client.reader.read_line(&mut line).expect("response");
                let v: Value = serde_json::from_str(line.trim()).expect("json");
                if v.get("ok").and_then(Value::as_bool) == Some(true) {
                    completed += 1;
                } else {
                    assert_eq!(
                        v.get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Value::as_str),
                        Some("overloaded"),
                        "shards={shards}: {v}"
                    );
                    shed += 1;
                }
            }
            assert_eq!(completed + shed, burst);
            assert!(shed > 0, "a 64-deep burst into a 2-slot queue must shed");
            assert!(completed >= 2, "admitted work still completes");

            // The burst has drained: `best` and a fresh solve bit-match
            // the world the server started from.
            let best = client.roundtrip(r#"{"v":1,"op":"best"}"#);
            let solved = client.roundtrip(r#"{"v":1,"op":"solve","algo":"pin-vo"}"#);
            for v in [&best, &solved] {
                assert_eq!(get_u64(v, "candidate"), want_id, "shards={shards}: {v}");
                assert_eq!(get_u64(v, "influence"), u64::from(want_inf));
                for (field, want) in [("x", want_loc.x), ("y", want_loc.y)] {
                    let got = v.get(field).and_then(Value::as_f64).expect("f64 field");
                    assert_eq!(got.to_bits(), want.to_bits(), "shards={shards} {field}");
                }
            }

            handle.shutdown();
            let stats = handle.join();
            assert_eq!(
                stats.shed, shed,
                "server and client agree on the shed count"
            );
            assert_eq!(stats.queries_solve, completed + 1);
            assert_eq!(stats.accounted_lines(), stats.lines_received);
        }
    }

    #[test]
    fn oversized_request_line_is_rejected_and_connection_closed() {
        let handle = serve(test_world(), ServerConfig::default()).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        // A newline-free flood past the cap: the server must answer with
        // a bounded `malformed` rejection and close, not buffer forever.
        let chunk = vec![b'x'; 64 * 1024];
        let mut sent = 0usize;
        while sent <= MAX_LINE_BYTES {
            if writer.write_all(&chunk).is_err() {
                break; // server already closed the socket on us
            }
            sent += chunk.len();
        }
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("rejection line");
        let v: Value = serde_json::from_str(line.trim()).expect("json");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("malformed")
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "must close");
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.accounted_lines(), stats.lines_received);
    }

    #[test]
    fn read_timeout_mid_utf8_character_preserves_the_partial_line() {
        let handle = serve(test_world(), ServerConfig::default()).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        // Split a request inside the two-byte "é": several 25ms poll
        // timeouts fire on the server before the rest arrives. The old
        // `read_line` path dropped the partial bytes (they fail the
        // UTF-8 check alone), corrupting framing; byte-wise reads keep
        // them.
        let request = r#"{"v":1,"id":7,"op":"ping","note":"héllo"}"#.as_bytes();
        let split = request.iter().position(|&b| b == 0xc3).expect("é") + 1;
        writer.write_all(&request[..split]).expect("first half");
        writer.flush().expect("flush");
        std::thread::sleep(POLL_QUANTUM * 4);
        writer.write_all(&request[split..]).expect("second half");
        writer.write_all(b"\n").expect("newline");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let v: Value = serde_json::from_str(line.trim()).expect("json");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.queries_ping, 1);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.accounted_lines(), stats.lines_received);
    }

    #[test]
    fn draining_rejects_new_requests_but_join_accounts_everything() {
        let handle = serve(test_world(), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr());
        let ack = client.roundtrip(r#"{"v":1,"op":"shutdown"}"#);
        assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true));
        let stats = handle.join();
        assert_eq!(stats.control, 1);
        assert_eq!(stats.lines_received, 1);
        assert_eq!(stats.accounted_lines(), stats.lines_received);
    }
}
