//! The TCP front end: JSON-lines over keep-alive sockets.
//!
//! [`serve_listener`] binds a [`TcpListener`] and serves the existing
//! bit-reproducible protocol ([`crate::protocol`]) to any number of
//! concurrent clients. Each connection is newline-delimited JSON both
//! ways: one request per line in, one response per line out, **responses
//! in request order per connection** — the same contract as batch mode, so
//! golden fixtures diff byte-for-byte against a socket transcript. Within
//! that ordering constraint responses *stream*: a finished response is
//! written while later requests on the same connection are still being
//! read (reader and writer are separate threads joined by a FIFO).
//!
//! # Latency
//!
//! A response leaves as soon as its job finishes and every earlier slot on
//! its connection has been written:
//!
//! - Each accepted socket sets `TCP_NODELAY`, and each response line —
//!   body and `\n` — goes out in one `write_all`, so no part of a line
//!   waits on the client's delayed ACK.
//! - The reader scans only newly read bytes for the line end, so a long
//!   line costs time linear in its length however many reads deliver it.
//!
//! # Admission control
//!
//! Backpressure is always a structured line, never a dropped connection:
//!
//! - **Line length** ([`MAX_LINE_BYTES`]): a request line past it gets one
//!   `invalid_request` line naming the limit; the reader drops the rest of
//!   the line unbuffered and reads the next one.
//! - **Connection quota** ([`ListenerConfig::conn_limit`]): a client
//!   arriving past the limit receives one `connection_quota` rejection
//!   line and a clean close.
//! - **In-flight job quota** ([`ListenerConfig::inflight_limit`]): a
//!   request arriving while the connection already has that many
//!   unanswered jobs gets a `job_quota` rejection line in-slot.
//! - **Queue saturation**: the service's own `queue_full` rejection is
//!   forwarded in-slot (the listener never blocks the socket on a full
//!   queue).
//!
//! # Telemetry (`morph-trace`, off by default)
//!
//! Counters `serve/conn_opened`, `serve/conn_closed`,
//! `serve/conn_quota_rejected`, `serve/job_quota_rejected`,
//! `serve/net_requests`, `serve/net_responses`; histogram
//! `serve/latency_ns` (request read → response written, per request).

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use morph_trace::lock_or_recover;

use crate::protocol::JobResponse;
use crate::service::Service;
use crate::Slot;

/// How often blocked socket reads and the accept loop re-check the stop
/// flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// The longest request line the listener buffers, newline excluded. A
/// connection holds at most one line, so this bounds its buffer. The
/// request lines of the repository's fixtures are under 1 KiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Network listener configuration.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Bind address. Port `0` lets the OS pick (the bound address is
    /// reported by [`Listener::local_addr`]).
    pub addr: String,
    /// Maximum concurrently open client connections.
    pub conn_limit: usize,
    /// Maximum unanswered jobs per connection.
    pub inflight_limit: usize,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_limit: 64,
            inflight_limit: 32,
        }
    }
}

/// A running network listener; dropping (or [`shutdown`](Self::shutdown))
/// stops accepting, lets open connections finish their in-flight work,
/// and joins every thread.
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Listener {
    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, winds down open connections (their already-read
    /// requests still get responses), and joins all listener threads. The
    /// [`Service`] itself is left running — shut it down separately.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        loop {
            // Connection threads may still be registering; drain until the
            // vector stays empty.
            let drained: Vec<JoinHandle<()>> =
                lock_or_recover(&self.conn_threads).drain(..).collect();
            if drained.is_empty() {
                break;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `config.addr` and serves `service` until shutdown.
///
/// # Errors
///
/// The I/O error if the address cannot be bound.
pub fn serve_listener(service: Arc<Service>, config: &ListenerConfig) -> io::Result<Listener> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_count = Arc::new(AtomicUsize::new(0));

    let accept = {
        let stop = Arc::clone(&stop);
        let conn_threads = Arc::clone(&conn_threads);
        let config = config.clone();
        std::thread::spawn(move || {
            accept_loop(
                &listener,
                &service,
                &config,
                &stop,
                &conn_threads,
                &conn_count,
            );
        })
    };

    Ok(Listener {
        local_addr,
        stop,
        accept: Some(accept),
        conn_threads,
    })
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    config: &ListenerConfig,
    stop: &Arc<AtomicBool>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_count: &Arc<AtomicUsize>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Without it a response's last segment waits for the ACK of
                // the one before, which the client may delay by 40 ms.
                let _ = stream.set_nodelay(true);
                if conn_count.load(Ordering::SeqCst) >= config.conn_limit {
                    morph_trace::counter("serve/conn_quota_rejected", 1);
                    refuse_connection(stream, config.conn_limit);
                    continue;
                }
                conn_count.fetch_add(1, Ordering::SeqCst);
                morph_trace::counter("serve/conn_opened", 1);
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                let conn_count = Arc::clone(conn_count);
                let inflight_limit = config.inflight_limit;
                let handle = std::thread::spawn(move || {
                    serve_connection(stream, &service, inflight_limit, &stop);
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                    morph_trace::counter("serve/conn_closed", 1);
                });
                let mut threads = lock_or_recover(conn_threads);
                // Release closed connections' threads now, not at shutdown:
                // an exited thread keeps its stack mapped until its handle
                // is joined or dropped.
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TICK);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A failed accept (e.g. EMFILE) must not kill the listener.
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Writes one `connection_quota` rejection line and closes.
fn refuse_connection(stream: TcpStream, limit: usize) {
    let response = JobResponse::from_refusal(
        "<connection>",
        "connection_quota",
        &format!("connection limit reached (limit {limit})"),
    );
    let _ = response.write_line(&stream);
}

/// A request's transit record: the slot plus its arrival instant for the
/// latency histogram.
struct Entry {
    slot: Slot,
    arrived: Instant,
}

/// Serves one keep-alive connection: a reader loop on this thread feeding
/// a writer thread through an order-preserving FIFO.
fn serve_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    inflight_limit: usize,
    stop: &AtomicBool,
) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Entry>();
    // Unanswered submitted jobs on this connection; the reader admits
    // against it, the writer retires it after each response line.
    let in_flight = Arc::new(AtomicUsize::new(0));

    let writer = {
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || write_loop(write_half, rx, &in_flight))
    };

    read_loop(stream, service, inflight_limit, stop, &tx, &in_flight);

    drop(tx); // Reader done: writer drains remaining slots, then exits.
    let _ = writer.join();
}

/// Reads newline-delimited requests, submitting each and queuing its slot.
///
/// Framing is manual (byte buffer + explicit `\n` split): `BufReader`
/// would discard its internal buffer on the read-timeout errors this loop
/// uses to poll the stop flag, losing bytes of a half-received line. Each
/// read is split once, so a line is scanned once however many reads it
/// spans. A line past [`MAX_LINE_BYTES`] is answered when it crosses the
/// bound, and the rest of it is dropped as it arrives.
fn read_loop(
    mut stream: TcpStream,
    service: &Arc<Service>,
    inflight_limit: usize,
    stop: &AtomicBool,
    tx: &mpsc::Sender<Entry>,
    in_flight: &Arc<AtomicUsize>,
) {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut line: Vec<u8> = Vec::new();
    // The pending line passed the bound and was answered; its remaining
    // bytes are dropped up to its newline.
    let mut over_long = false;
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // Client closed its write side.
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return,
        };
        // Every piece but the last ends with a newline.
        let mut pieces = chunk[..n].split(|&b| b == b'\n').peekable();
        while let Some(piece) = pieces.next() {
            let ends_line = pieces.peek().is_some();
            let mut slot = None;
            if !over_long {
                line.extend_from_slice(piece);
                if line.len() > MAX_LINE_BYTES {
                    over_long = true;
                    line = Vec::new();
                    slot = Some(refuse_over_long_line());
                } else if ends_line {
                    let text = String::from_utf8_lossy(&line);
                    if !text.trim().is_empty() {
                        slot = Some(admit(&text, service, inflight_limit, in_flight));
                    }
                }
            }
            if ends_line {
                over_long = false;
                line.clear();
            }
            if let Some(slot) = slot {
                let entry = Entry {
                    slot,
                    arrived: Instant::now(),
                };
                if tx.send(entry).is_err() {
                    return; // Writer died (broken socket).
                }
            }
        }
    }
}

/// The answer to a request line longer than [`MAX_LINE_BYTES`].
fn refuse_over_long_line() -> Slot {
    morph_trace::counter("serve/net_requests", 1);
    Slot::Ready(Box::new(JobResponse::from_invalid_line(
        "<unknown>",
        &format!("request line longer than {MAX_LINE_BYTES} bytes"),
    )))
}

/// Parses and submits one request line under the connection's quotas.
fn admit(
    line: &str,
    service: &Arc<Service>,
    inflight_limit: usize,
    in_flight: &Arc<AtomicUsize>,
) -> Slot {
    morph_trace::counter("serve/net_requests", 1);
    let slot = Slot::admit(line, |request| {
        if in_flight.load(Ordering::SeqCst) >= inflight_limit {
            morph_trace::counter("serve/job_quota_rejected", 1);
            return Err(JobResponse::from_refusal(
                &request.id,
                "job_quota",
                &format!("connection in-flight job limit reached (limit {inflight_limit})"),
            ));
        }
        let id = request.id.clone();
        service
            .submit(request)
            .map_err(|rejection| JobResponse::from_rejection(&id, &rejection))
    });
    if let Slot::Pending(_) = slot {
        in_flight.fetch_add(1, Ordering::SeqCst);
    }
    slot
}

/// Writes responses in FIFO (request) order, streaming each as soon as its
/// job finishes.
fn write_loop(stream: TcpStream, rx: mpsc::Receiver<Entry>, in_flight: &AtomicUsize) {
    for entry in rx {
        let pending = matches!(entry.slot, Slot::Pending(_));
        let response = entry.slot.response();
        if pending {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        if response.write_line(&stream).is_err() {
            return; // Peer gone; pending handles drain via their Drops.
        }
        morph_trace::counter("serve/net_responses", 1);
        morph_trace::histogram(
            "serve/latency_ns",
            entry.arrived.elapsed().as_nanos() as u64,
        );
    }
}
