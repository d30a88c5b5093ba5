//! The concurrent connection host: one appliance panel served to many
//! real TCP clients.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! ```text
//!            accept thread ──spawns──► reader thread (per conn)
//!                                      writer thread (per conn)
//!                   │                        │          ▲
//!                   ▼         events        ▼          │ bounded OutQueue
//!              state thread ◄────────────────          │
//!        (Ui + GatewayCore) ────────────────────────────
//! ```
//!
//! Readers forward decoded [`ClientMessage`]s into one channel. The state
//! thread owns the [`Ui`] and the sans-IO [`GatewayCore`], hands it each
//! event with the time since start, and sleeps until the next event or
//! [`next_deadline`](GatewayCore::next_deadline). The concurrency lives
//! at the sockets, not in the session logic. Each connection's
//! [`OutQueue`] is shared with its writer under a `Mutex` + `Condvar`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use uniint_core::tap::SharedTap;
use uniint_protocol::message::{encode_server, ClientMessage, ServerMessage};
use uniint_telemetry::registry::Registry;
use uniint_wsys::ui::Ui;

use crate::codec::{FramedSocket, ReadStatus, DEFAULT_MAX_FRAME};
use crate::state::{ConnId, GatewayCore, OutQueue, Queue};

/// Tuning knobs for a [`Gateway`]. Queue bounds and the held-`Hello`
/// grace are the constants in [`crate::state`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Address the gateway listens on. Defaults to `127.0.0.1:0`
    /// (loopback, ephemeral port); bind `0.0.0.0:<port>` to serve a
    /// real network.
    pub bind_addr: SocketAddr,
    /// Largest frame accepted from a client, bytes. Frames declaring
    /// more are rejected before allocation and the connection dropped.
    pub max_frame: usize,
    /// How long a session may stay detached (no socket) before it is
    /// reaped and its name freed. `None` keeps detached sessions
    /// forever — unbounded memory under client-name churn.
    pub session_grace: Option<Duration>,
    /// Flight-recorder tap (see `uniint-trace`). When set, the state
    /// thread records every client message it processes and every
    /// server message it queues, stamped with microseconds since
    /// gateway start and channelled by connection id. `None` (the
    /// default) costs one branch per message.
    pub recorder: Option<SharedTap>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_frame: DEFAULT_MAX_FRAME,
            session_grace: Some(Duration::from_secs(60)),
            recorder: None,
        }
    }
}

/// One connection's [`OutQueue`], shared by the state thread (push) and
/// the connection's writer thread (pop).
#[derive(Debug, Default)]
struct SharedQueue {
    queue: Mutex<OutQueue>,
    ready: Condvar,
}

/// Whether a writer has nothing to do but wait.
fn idle(q: &mut OutQueue) -> bool {
    q.depth() == 0 && !q.is_closed()
}

impl Queue for Arc<SharedQueue> {
    /// Runs `f` under the lock, waking the writer if it gave it work.
    fn with<R>(&mut self, f: impl FnOnce(&mut OutQueue) -> R) -> R {
        let mut q = self.queue.lock().expect("queue poisoned");
        let was_idle = idle(&mut q);
        let r = f(&mut q);
        let wake = was_idle && !idle(&mut q);
        drop(q);
        if wake {
            self.ready.notify_one();
        }
        r
    }
}

impl SharedQueue {
    /// Blocks for the next message; `None` once closed and drained.
    fn next(&self) -> Option<ServerMessage> {
        let q = self.queue.lock().expect("queue poisoned");
        let mut q = self.ready.wait_while(q, idle).expect("queue poisoned");
        q.pop()
    }
}

/// Events flowing from accept/reader threads into the state thread.
#[derive(Debug)]
enum Event {
    /// A socket connected; its writer listens on the queue.
    Connected(ConnId, Arc<SharedQueue>),
    /// One decoded message from a connection.
    Msg(ConnId, ClientMessage),
    /// Socket gone (EOF, error, oversized frame...).
    Disconnected(ConnId),
    /// Orderly gateway shutdown.
    Shutdown,
}

/// A running gateway: an appliance panel listening on a TCP port.
///
/// Created with [`Gateway::spawn`]; the panel [`Ui`] moves into the
/// state thread and comes back out of [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    registry: Registry,
    stop: Arc<AtomicBool>,
    events: Sender<Event>,
    accept_handle: Option<JoinHandle<()>>,
    state_handle: Option<JoinHandle<Ui>>,
    io_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Gateway {
    /// Binds `config.bind_addr` (loopback + ephemeral port by default)
    /// and starts serving `ui`.
    pub fn spawn(ui: Ui, config: GatewayConfig, registry: Registry) -> io::Result<Gateway> {
        let listener = TcpListener::bind(config.bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded::<Event>();
        let io_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let stop = stop.clone();
            let tx = tx.clone();
            let io_handles = io_handles.clone();
            let max_frame = config.max_frame;
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("gw-accept".into())
                .spawn(move || accept_loop(listener, stop, tx, io_handles, max_frame, registry))?
        };

        let state_handle = {
            let core = GatewayCore::new(
                registry.clone(),
                config.session_grace.map(|g| g.as_micros() as u64),
                config.recorder,
            );
            std::thread::Builder::new()
                .name("gw-state".into())
                .spawn(move || state_loop(ui, core, rx))?
        };

        Ok(Gateway {
            addr,
            registry,
            stop,
            events: tx,
            accept_handle: Some(accept_handle),
            state_handle: Some(state_handle),
            io_handles,
        })
    }

    /// The address clients connect to (resolves the ephemeral port when
    /// `bind_addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry all gateway and per-session counters land in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops every thread, closes every connection and returns the
    /// panel [`Ui`] in its final state.
    pub fn shutdown(mut self) -> Ui {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.events.send(Event::Shutdown);
        let ui = self
            .state_handle
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("state thread never panics");
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.io_handles.lock().expect("io handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
        ui
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    tx: Sender<Event>,
    io_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_frame: usize,
    registry: Registry,
) {
    let next_id = AtomicUsize::new(0);
    let accepted = registry.counter("gateway.accepted");
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = next_id.fetch_add(1, Ordering::SeqCst);
                accepted.inc();
                match spawn_conn(id, stream, &stop, &tx, max_frame, &registry) {
                    Ok(mut handles) => {
                        io_handles
                            .lock()
                            .expect("io handles poisoned")
                            .append(&mut handles);
                    }
                    Err(_) => {
                        let _ = tx.send(Event::Disconnected(id));
                    }
                }
            }
            // WouldBlock (nothing pending) or a transient accept error.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Starts the reader and writer threads for one accepted socket.
fn spawn_conn(
    id: ConnId,
    stream: TcpStream,
    stop: &Arc<AtomicBool>,
    tx: &Sender<Event>,
    max_frame: usize,
    registry: &Registry,
) -> io::Result<Vec<JoinHandle<()>>> {
    let queue = Arc::new(SharedQueue::default());
    let write_half = stream.try_clone()?;
    let mut sock = FramedSocket::new(stream, max_frame, Duration::from_millis(20))?;
    let _ = tx.send(Event::Connected(id, queue.clone()));

    let reader = {
        let stop = stop.clone();
        let tx = tx.clone();
        let mut queue = queue.clone();
        let frames_in = registry.counter("gateway.frames_in");
        let bytes_in = registry.counter("gateway.bytes_in");
        let decode_errors = registry.counter("gateway.decode_errors");
        std::thread::Builder::new()
            .name(format!("gw-read-{id}"))
            .spawn(move || {
                'conn: loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match sock.fill() {
                        Ok(ReadStatus::Eof) | Err(_) => break,
                        Ok(ReadStatus::Idle) => continue,
                        Ok(ReadStatus::Data(n)) => bytes_in.add(n as u64),
                    }
                    loop {
                        let next = sock.next_frame().and_then(|frame| {
                            let decode = |f: Vec<u8>| ClientMessage::decode_body(&mut f.as_slice());
                            frame.map(decode).transpose()
                        });
                        match next {
                            Ok(Some(msg)) => {
                                frames_in.inc();
                                let _ = tx.send(Event::Msg(id, msg));
                            }
                            Ok(None) => break,
                            // Oversized, corrupt or undecodable: the peer
                            // is hostile or broken either way.
                            Err(_) => {
                                decode_errors.inc();
                                break 'conn;
                            }
                        }
                    }
                }
                queue.with(OutQueue::close);
                let _ = tx.send(Event::Disconnected(id));
            })?
    };

    let writer = {
        let mut queue = queue.clone();
        let bytes_out = registry.counter("gateway.bytes_out");
        std::thread::Builder::new()
            .name(format!("gw-write-{id}"))
            .spawn(move || {
                use std::io::Write;
                let mut out = write_half;
                while let Some(msg) = queue.next() {
                    let bytes = encode_server(&msg);
                    if out.write_all(&bytes).is_err() {
                        queue.with(OutQueue::close);
                        break;
                    }
                    bytes_out.add(bytes.len() as u64);
                }
                // Waking the reader (EOF) is what turns "writer gave up"
                // into a full disconnect.
                let _ = out.shutdown(std::net::Shutdown::Both);
            })?
    };

    Ok(vec![reader, writer])
}

/// The state thread: a driver for the [`GatewayCore`] that passes it
/// every event with the microseconds since start and sleeps until the
/// next event or the core's next deadline.
fn state_loop(mut ui: Ui, mut core: GatewayCore<Arc<SharedQueue>>, rx: Receiver<Event>) -> Ui {
    let started = Instant::now();
    let now_us = || started.elapsed().as_micros() as u64;
    loop {
        let first = match core.next_deadline() {
            Some(deadline) => {
                let wait = Duration::from_micros(deadline.saturating_sub(now_us()));
                match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(ev) => Some(ev),
                Err(_) => break,
            },
        };
        for ev in first.into_iter().chain(rx.try_iter()) {
            match ev {
                Event::Connected(id, queue) => core.connect(id, queue),
                Event::Msg(id, msg) => core.message(&mut ui, id, msg, now_us()),
                Event::Disconnected(id) => core.disconnect(id, now_us()),
                // Readers see the stop flag and close their queues,
                // which ends the writers.
                Event::Shutdown => return ui,
            }
        }
        core.poll(&mut ui, now_us());
    }
    ui
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_drains_the_queue_then_ends_on_close() {
        let mut q = Arc::new(SharedQueue::default());
        let writer = {
            let q = q.clone();
            std::thread::spawn(move || std::iter::from_fn(|| q.next()).count())
        };
        q.with(|q| q.push(ServerMessage::Bell));
        q.with(|q| q.push(ServerMessage::Bell));
        q.with(OutQueue::close);
        assert_eq!(
            writer.join().unwrap(),
            2,
            "drains what is queued, then ends"
        );
    }
}
