//! The gateway host's session logic as one sans-IO state machine.
//!
//! [`GatewayCore`] owns the [`MultiServer`], the name → session table,
//! which connection each session writes to, held `Hello`s,
//! detached-session expiry, the gateway counters and one bounded
//! [`OutQueue`] per connection. It has no sockets, threads, locks or
//! clock: a driver reports connections, messages and disconnects with
//! the time in microseconds, calls [`GatewayCore::poll`] after each batch
//! and at [`GatewayCore::next_deadline`], and writes out the queues.
//! `Gateway` (module `host`) drives it over TCP, the lifecycle tests over
//! the network simulator.

use std::collections::{BTreeMap, HashMap, VecDeque};

use uniint_core::multi::{ClientId, MultiServer};
use uniint_core::tap::{Direction, SharedTap};
use uniint_protocol::message::{encode_client, encode_server, ClientMessage, ServerMessage};
use uniint_telemetry::registry::{Counter, Gauge, Registry};
use uniint_wsys::ui::Ui;

use crate::codec::check_hello_version;

/// Identifies one connection. Not the same as a session: a session
/// survives reconnects, a connection does not.
pub type ConnId = usize;

/// How long a `Hello` for an already-known name is held back waiting
/// for a `Resume` to tell a reconnect from name reuse, microseconds. A
/// fresh client (crashed and restarted) sends only the Hello, so once
/// this grace elapses the Hello resolves as a replacement.
pub const HELLO_GRACE_US: u64 = 250_000;

/// Outbound queue capacity per connection, messages. A client that stays
/// this far behind even after update coalescing is dropped.
pub const MAX_QUEUE: usize = 64;

/// Largest total pixel payload, bytes, that update coalescing may gather
/// into one queue entry; a merge past it starts a new entry. Queue memory
/// stays bounded by about `MAX_QUEUE * MAX_COALESCE_BYTES` even for a
/// stalled client under a continuously changing panel.
pub const MAX_COALESCE_BYTES: usize = 8 << 20;

/// What [`OutQueue::push`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// Appended as a new entry.
    Queued,
    /// Folded into the `Update` already at the tail.
    Coalesced,
    /// Queue was full and the message could not coalesce: the queue is
    /// now closed and the connection must be dropped.
    Overflow,
    /// Queue already closed; message discarded.
    Closed,
}

/// A bounded, coalescing outbound message queue (one per connection).
///
/// Plain data: the TCP driver shares it with the connection's writer
/// thread under a lock, the simulator driver owns it outright.
#[derive(Debug)]
pub struct OutQueue {
    items: VecDeque<ServerMessage>,
    closed: bool,
    /// Payload bytes accumulated in the tail entry (0 if not an
    /// `Update`). Only changed at push time, which is also the only time
    /// the tail's identity can change.
    tail_bytes: usize,
    cap: usize,
    coalesce_cap: usize,
}

impl Default for OutQueue {
    fn default() -> OutQueue {
        OutQueue::bounded(MAX_QUEUE, MAX_COALESCE_BYTES)
    }
}

impl OutQueue {
    fn bounded(cap: usize, coalesce_cap: usize) -> OutQueue {
        OutQueue {
            items: VecDeque::new(),
            closed: false,
            tail_bytes: 0,
            cap: cap.max(1),
            coalesce_cap,
        }
    }

    /// Enqueues `msg`, coalescing consecutive `Update`s: if the tail of
    /// the queue is an `Update` in the same pixel format, the new rects
    /// are appended to it and the sequence advances to the newer one.
    /// Applying the merged update is pixel-identical to applying both in
    /// order, and ordering relative to `Resize`/`Bell` is preserved
    /// because only the *tail* merges. A merge never grows the tail past
    /// the coalesce cap — beyond that the update starts a new entry, so a
    /// stalled client is bounded by the queue cap in entries of bounded
    /// size and eventually overflows instead of absorbing the panel's
    /// whole change history into one giant message.
    pub fn push(&mut self, msg: ServerMessage) -> Pushed {
        if self.closed {
            return Pushed::Closed;
        }
        let mut msg_bytes = 0;
        if let ServerMessage::Update { seq, format, rects } = &msg {
            msg_bytes = rects.iter().map(|r| r.payload.len()).sum();
            let fits = self.tail_bytes.saturating_add(msg_bytes) <= self.coalesce_cap;
            if let Some(ServerMessage::Update {
                seq: tail_seq,
                format: tail_format,
                rects: tail_rects,
            }) = self.items.back_mut()
            {
                if tail_format == format && fits {
                    tail_rects.extend(rects.iter().cloned());
                    *tail_seq = (*tail_seq).max(*seq);
                    self.tail_bytes += msg_bytes;
                    return Pushed::Coalesced;
                }
            }
        }
        if self.items.len() >= self.cap {
            self.closed = true;
            self.items.clear();
            return Pushed::Overflow;
        }
        self.items.push_back(msg);
        self.tail_bytes = msg_bytes;
        Pushed::Queued
    }

    /// The next message to write, if any.
    pub fn pop(&mut self) -> Option<ServerMessage> {
        self.items.pop_front()
    }

    /// Closes the queue; the writer drains what is left and ends the
    /// connection.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether the queue is closed (it may still hold messages to drain).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Messages waiting to be written.
    pub fn depth(&self) -> usize {
        self.items.len()
    }
}

/// A connection's [`OutQueue`] as its driver holds it: owned outright,
/// or shared with a writer thread.
pub trait Queue {
    /// Runs `f` on the queue.
    fn with<R>(&mut self, f: impl FnOnce(&mut OutQueue) -> R) -> R;
}

impl Queue for OutQueue {
    fn with<R>(&mut self, f: impl FnOnce(&mut OutQueue) -> R) -> R {
        f(self)
    }
}

/// Counters the core maintains (socket-side counters live in the
/// drivers and share the registry by name).
#[derive(Debug)]
struct StateMetrics {
    reconnects: Counter,
    resumes: Counter,
    rejected_version: Counter,
    decode_errors: Counter,
    dropped_connections: Counter,
    expired_sessions: Counter,
    write_coalesced: Counter,
    queue_depth: Gauge,
}

impl StateMetrics {
    fn new(r: &Registry) -> StateMetrics {
        StateMetrics {
            reconnects: r.counter("gateway.reconnects"),
            resumes: r.counter("gateway.resumes"),
            rejected_version: r.counter("gateway.rejected_version"),
            decode_errors: r.counter("gateway.decode_errors"),
            dropped_connections: r.counter("gateway.dropped_connections"),
            expired_sessions: r.counter("gateway.expired_sessions"),
            write_coalesced: r.counter("gateway.write_coalesced"),
            queue_depth: r.gauge("gateway.queue_depth"),
        }
    }
}

/// Per-connection bookkeeping. A connection the core closed is gone from
/// its table, so nothing it still sends reaches any session.
#[derive(Debug, Default)]
struct Conn {
    session: Option<ClientId>,
    /// A `Hello` for a known name and its arrival time, held until the
    /// next message tells a reconnect (`Resume`) from name reuse, or
    /// until [`HELLO_GRACE_US`] passes.
    pending_hello: Option<(ClientMessage, u64)>,
}

/// The host's session state machine: name-keyed sessions shared by one
/// panel, surviving their connections. See the [module docs](self).
#[derive(Debug)]
pub struct GatewayCore<Q> {
    multi: MultiServer,
    conns: BTreeMap<ConnId, Conn>,
    /// Each connection's queue, from `connect` to `disconnect` — past a
    /// close, so its writer can drain it.
    queues: BTreeMap<ConnId, Q>,
    /// Session bindings survive their connections: name → session...
    names: HashMap<String, ClientId>,
    /// ...and which connection (if any) a session's output goes to.
    attached: HashMap<ClientId, ConnId>,
    /// When each detached session lost its connection, so stale ones are
    /// reaped instead of piling up under client-name churn.
    detached_at: BTreeMap<ClientId, u64>,
    session_grace_us: Option<u64>,
    /// Time of the event being handled, microseconds.
    now_us: u64,
    metrics: StateMetrics,
    registry: Registry,
    recorder: Option<SharedTap>,
}

impl<Q: Queue> GatewayCore<Q> {
    /// A core with no connections, counting into `registry`. Sessions
    /// detached longer than `session_grace_us` are reaped (`None` keeps
    /// them forever). A `recorder` tap sees every client message the core
    /// consumes and every server message it queues, stamped with the
    /// driver's time and channelled by connection id.
    pub fn new(
        registry: Registry,
        session_grace_us: Option<u64>,
        recorder: Option<SharedTap>,
    ) -> GatewayCore<Q> {
        GatewayCore {
            multi: MultiServer::new(),
            conns: BTreeMap::new(),
            queues: BTreeMap::new(),
            names: HashMap::new(),
            attached: HashMap::new(),
            detached_at: BTreeMap::new(),
            session_grace_us,
            now_us: 0,
            metrics: StateMetrics::new(&registry),
            registry,
            recorder,
        }
    }

    /// A connection opened, writing through `queue`.
    pub fn connect(&mut self, conn: ConnId, queue: Q) {
        self.conns.insert(conn, Conn::default());
        self.queues.insert(conn, queue);
    }

    /// `conn`'s queue, until [`disconnect`](Self::disconnect).
    pub fn queue(&mut self, conn: ConnId) -> Option<&mut Q> {
        self.queues.get_mut(&conn)
    }

    /// A connection ended (EOF, error, oversized frame...). Its session
    /// stays alive under its name: damage keeps accumulating in it, so
    /// the same name can come back and resume incrementally — until the
    /// session grace reaps it.
    pub fn disconnect(&mut self, conn: ConnId, now_us: u64) {
        self.now_us = now_us;
        self.forget(conn);
        self.queues.remove(&conn);
    }

    /// Applies one client message: version policy, name-keyed session
    /// adoption, then protocol dispatch into the [`MultiServer`].
    /// Messages from connections the core does not know — never opened,
    /// or closed by it — are dropped unseen.
    pub fn message(&mut self, ui: &mut Ui, conn: ConnId, msg: ClientMessage, now_us: u64) {
        self.now_us = now_us;
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if let Some(tap) = &self.recorder {
            // Recorded when consumed (held-back Hellos too, in arrival
            // order, even though their processing is deferred).
            let body = &encode_client(&msg)[4..];
            tap.record(now_us, conn as u32, Direction::ToServer, body);
        }

        // A held-back Hello resolves on the very next message (or, if
        // none comes, on the hello grace timeout in `poll`).
        if let Some((hello, _)) = c.pending_hello.take() {
            let ClientMessage::Hello { ref name, .. } = hello else {
                unreachable!("only Hello is ever held back");
            };
            // Adopt the existing session only on Resume; its name may
            // also have been reaped between hold and resolution, in
            // which case a fresh session is the only option left.
            match (&msg, self.names.get(name).copied()) {
                (ClientMessage::Resume { .. }, Some(sid)) => self.adopt(conn, sid),
                _ => self.bind_fresh_session(ui, conn, hello),
            }
            // Fall through: `msg` itself is processed below.
        }

        let Some(session) = self.conns.get(&conn).map(|c| c.session) else {
            return;
        };
        match (&msg, session) {
            (ClientMessage::Hello { version, name }, _) => {
                if check_hello_version(*version).is_err() {
                    self.metrics.rejected_version.inc();
                    self.registry
                        .journal()
                        .record("gateway.rejected_version", format!("{name}: v{version}"));
                    self.close(conn);
                    return;
                }
                // A re-Hello from a bound connection rebinds it: detach
                // the old session first so only one seq stream ever
                // writes to this connection.
                if let Some(sid) = session {
                    self.detach(sid, conn);
                }
                let c = self.conns.get_mut(&conn).expect("checked");
                c.session = None;
                if self.names.contains_key(name) {
                    // Known name: reconnect or collision? The next
                    // message tells (Resume means reconnect), and the
                    // hello grace resolves the silent case.
                    c.pending_hello = Some((msg, now_us));
                    return;
                }
                let sid = self.multi.accept_with_telemetry(ui, self.registry.clone());
                self.names.insert(name.clone(), sid);
                self.bind(ui, conn, sid, msg);
            }
            (_, Some(sid)) => {
                if matches!(msg, ClientMessage::Resume { .. }) {
                    self.metrics.resumes.inc();
                }
                let replies = self.multi.handle_message(ui, sid, msg);
                self.push_to(conn, replies);
            }
            (_, None) => {
                // Message before any Hello: protocol abuse, drop the peer.
                self.metrics.decode_errors.inc();
                self.close(conn);
            }
        }
    }

    /// Housekeeping at `now_us`: resolves held `Hello`s whose grace
    /// passed, reaps expired detached sessions, then renders the panel
    /// and queues every session's pending updates.
    pub fn poll(&mut self, ui: &mut Ui, now_us: u64) {
        self.now_us = now_us;
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.pending_hello
                    .as_ref()
                    .is_some_and(|(_, held)| held + HELLO_GRACE_US <= now_us)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            // Silence after the Hello: a fresh client reusing a known
            // name, so the old session is abandoned in its favour.
            if let Some((hello, _)) = self.conns.get_mut(&id).and_then(|c| c.pending_hello.take()) {
                if let ClientMessage::Hello { name, .. } = &hello {
                    self.registry
                        .journal()
                        .record("gateway.hello_grace", name.clone());
                }
                self.bind_fresh_session(ui, id, hello);
            }
        }

        if let Some(grace) = self.session_grace_us {
            let expired: Vec<ClientId> = self
                .detached_at
                .iter()
                .filter(|(_, since)| *since + grace <= now_us)
                .map(|(sid, _)| *sid)
                .collect();
            for sid in expired {
                self.detached_at.remove(&sid);
                let name = self.name_of(sid);
                self.names.remove(&name);
                self.multi.disconnect(sid);
                self.metrics.expired_sessions.inc();
                self.registry
                    .journal()
                    .record("gateway.session_expired", name);
            }
        }

        for (sid, msgs) in self.multi.pump_all(ui) {
            // A detached session's updates stay as damage inside the
            // server session until the name resumes.
            if let Some(&conn) = self.attached.get(&sid) {
                self.push_to(conn, msgs);
            }
        }
    }

    /// The earliest time [`poll`](Self::poll) has work beyond pumping: a
    /// held `Hello`'s grace running out or a detached session expiring.
    /// `None` when nothing is pending.
    pub fn next_deadline(&self) -> Option<u64> {
        let hellos = self
            .conns
            .values()
            .filter_map(|c| c.pending_hello.as_ref().map(|(_, t)| t + HELLO_GRACE_US));
        let expiries = self
            .session_grace_us
            .into_iter()
            .flat_map(|grace| self.detached_at.values().map(move |t| t + grace));
        hellos.chain(expiries).min()
    }

    /// The name `sid` is registered under.
    fn name_of(&self, sid: ClientId) -> String {
        let mut names = self.names.iter();
        let found = names.find(|(_, s)| **s == sid).map(|(name, _)| name);
        found.cloned().unwrap_or_default()
    }

    /// Journals `event` with the name of session `sid`.
    fn note(&self, event: &str, sid: ClientId) {
        self.registry.journal().record(event, self.name_of(sid));
    }

    /// Marks `sid` detached if `conn` is what it writes to.
    fn detach(&mut self, sid: ClientId, conn: ConnId) {
        if self.attached.get(&sid) == Some(&conn) {
            self.attached.remove(&sid);
            self.detached_at.insert(sid, self.now_us);
        }
    }

    /// Drops `conn` from the table, detaching its session.
    fn forget(&mut self, conn: ConnId) {
        if let Some(sid) = self.conns.remove(&conn).and_then(|c| c.session) {
            self.detach(sid, conn);
        }
    }

    /// Closes `conn`: it leaves the table and its queue closes, so the
    /// driver drains it and ends the connection.
    fn close(&mut self, conn: ConnId) {
        self.forget(conn);
        if let Some(q) = self.queues.get_mut(&conn) {
            q.with(OutQueue::close);
        }
    }

    /// Points `sid`'s output at `conn`, closing the connection it wrote
    /// to before (a client displaced by its name's new owner).
    fn attach(&mut self, sid: ClientId, conn: ConnId) {
        if let Some(old) = self.attached.insert(sid, conn).filter(|&old| old != conn) {
            self.note("gateway.displaced", sid);
            self.close(old);
        }
        self.detached_at.remove(&sid);
        if let Some(c) = self.conns.get_mut(&conn) {
            c.session = Some(sid);
        }
    }

    /// Reconnect: `conn` adopts the existing session wholesale. The held
    /// Hello is deliberately *not* forwarded — a Hello resets server-side
    /// session state, which is exactly what an incremental resume must
    /// avoid.
    fn adopt(&mut self, conn: ConnId, sid: ClientId) {
        self.attach(sid, conn);
        self.metrics.reconnects.inc();
        self.note("gateway.reconnect", sid);
    }

    /// Binds `conn` to a brand-new session for `hello`'s name, discarding
    /// any previous session under that name (and closing its connection).
    fn bind_fresh_session(&mut self, ui: &mut Ui, conn: ConnId, hello: ClientMessage) {
        let ClientMessage::Hello { ref name, .. } = hello else {
            unreachable!("only Hello is ever held back");
        };
        let sid = self.multi.accept_with_telemetry(ui, self.registry.clone());
        if let Some(&old_sid) = self.names.get(name) {
            if let Some(old_conn) = self.attached.remove(&old_sid) {
                self.note("gateway.displaced", old_sid);
                self.close(old_conn);
            }
            self.detached_at.remove(&old_sid);
            self.multi.disconnect(old_sid);
        }
        self.names.insert(name.clone(), sid);
        self.bind(ui, conn, sid, hello);
    }

    /// Attaches the new session `sid` to `conn` and forwards its `Hello`
    /// so the normal handshake replies flow.
    fn bind(&mut self, ui: &mut Ui, conn: ConnId, sid: ClientId, hello: ClientMessage) {
        self.attach(sid, conn);
        let replies = self.multi.handle_message(ui, sid, hello);
        self.push_to(conn, replies);
    }

    fn push_to(&mut self, conn: ConnId, replies: Vec<ServerMessage>) {
        if !self.conns.contains_key(&conn) {
            return;
        }
        let Some(q) = self.queues.get_mut(&conn) else {
            return;
        };
        for r in replies {
            if let Some(tap) = &self.recorder {
                // Recorded pre-queue, i.e. in the order the sessions
                // produced the messages, before any coalescing.
                let body = &encode_server(&r)[4..];
                tap.record(self.now_us, conn as u32, Direction::ToClient, body);
            }
            match q.with(|q| q.push(r)) {
                Pushed::Coalesced => self.metrics.write_coalesced.inc(),
                Pushed::Overflow => {
                    self.metrics.dropped_connections.inc();
                    if let Some(sid) = self.conns.get(&conn).and_then(|c| c.session) {
                        self.note("gateway.overflow", sid);
                    }
                    self.forget(conn);
                    return;
                }
                Pushed::Queued | Pushed::Closed => {}
            }
        }
        self.metrics.queue_depth.set(q.with(|q| q.depth()) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_protocol::message::{RectUpdate, PROTOCOL_VERSION};
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;
    use uniint_wsys::prelude::{Theme, Toggle};

    fn update(seq: u64, x: i32) -> ServerMessage {
        ServerMessage::Update {
            seq,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(x, 0, 1, 1),
                encoding: uniint_protocol::encoding::Encoding::Raw,
                payload: vec![0, 0, 0],
            }],
        }
    }

    #[test]
    fn queue_coalesces_consecutive_updates() {
        let mut q = OutQueue::bounded(4, usize::MAX);
        assert_eq!(q.push(update(1, 0)), Pushed::Queued);
        assert_eq!(q.push(update(2, 1)), Pushed::Coalesced);
        assert_eq!(q.push(update(3, 2)), Pushed::Coalesced);
        assert_eq!(q.depth(), 1);
        match q.pop().unwrap() {
            ServerMessage::Update { seq, rects, .. } => {
                assert_eq!(seq, 3, "merged update carries the newest seq");
                assert_eq!(rects.len(), 3, "all damage retained in order");
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn queue_does_not_merge_across_interleaved_messages() {
        // Update / Resize / Update must stay three messages: merging the
        // second update into the first would replay its rects *before*
        // the resize that invalidated the old geometry.
        let mut q = OutQueue::bounded(4, usize::MAX);
        q.push(update(1, 0));
        q.push(ServerMessage::Resize {
            width: 10,
            height: 10,
        });
        assert_eq!(q.push(update(2, 1)), Pushed::Queued);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn queue_coalescing_is_bounded_in_bytes() {
        // Each test update carries a 3-byte payload; a 4-byte coalesce
        // cap lets no pair merge, so a backed-up client marches toward
        // the queue cap (and Overflow) instead of growing one tail
        // entry without bound.
        let mut q = OutQueue::bounded(3, 4);
        assert_eq!(q.push(update(1, 0)), Pushed::Queued);
        assert_eq!(
            q.push(update(2, 1)),
            Pushed::Queued,
            "merge would exceed cap"
        );
        assert_eq!(q.push(update(3, 2)), Pushed::Queued);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.push(update(4, 3)), Pushed::Overflow);
    }

    #[test]
    fn queue_coalesces_again_after_a_new_tail_starts() {
        // A 7-byte cap fits two 3-byte payloads but not three: the third
        // update starts a fresh tail, and the fourth merges into *it*.
        let mut q = OutQueue::bounded(4, 7);
        assert_eq!(q.push(update(1, 0)), Pushed::Queued);
        assert_eq!(q.push(update(2, 1)), Pushed::Coalesced);
        assert_eq!(q.push(update(3, 2)), Pushed::Queued, "cap reached");
        assert_eq!(q.push(update(4, 3)), Pushed::Coalesced, "new tail merges");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn queue_overflow_closes() {
        let mut q = OutQueue::bounded(2, usize::MAX);
        assert_eq!(q.push(ServerMessage::Bell), Pushed::Queued);
        assert_eq!(q.push(ServerMessage::Bell), Pushed::Queued);
        assert_eq!(q.push(ServerMessage::Bell), Pushed::Overflow);
        assert_eq!(q.push(ServerMessage::Bell), Pushed::Closed);
        assert!(q.pop().is_none() && q.is_closed(), "closed + drained");
    }

    #[test]
    fn queue_pop_is_empty_while_open() {
        let mut q = OutQueue::bounded(2, usize::MAX);
        assert_eq!(q.pop(), None);
        assert!(!q.is_closed(), "empty is not the end of the stream");
    }

    /// A core serving a one-toggle panel.
    struct Rig {
        ui: Ui,
        core: GatewayCore<OutQueue>,
    }

    const GRACE_US: u64 = 1_000_000;

    impl Rig {
        fn new() -> Rig {
            let mut ui = Ui::new(160, 120, Theme::classic(), "core-panel");
            ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
            Rig {
                ui,
                core: GatewayCore::new(Registry::new(), Some(GRACE_US), None),
            }
        }

        fn connect(&mut self, conn: ConnId) {
            self.core.connect(conn, OutQueue::default());
        }

        fn send(&mut self, conn: ConnId, msg: ClientMessage, now_us: u64) {
            self.core.message(&mut self.ui, conn, msg, now_us);
        }

        fn poll(&mut self, now_us: u64) {
            self.core.poll(&mut self.ui, now_us);
        }

        /// Everything queued for `conn` so far.
        fn drain(&mut self, conn: ConnId) -> Vec<ServerMessage> {
            let q = self.core.queue(conn).unwrap();
            std::iter::from_fn(|| q.pop()).collect()
        }

        fn closed(&mut self, conn: ConnId) -> bool {
            self.core.queue(conn).unwrap().is_closed()
        }

        fn journal(&self) -> Vec<(String, String)> {
            let events = self.core.registry.journal().events();
            events.into_iter().map(|e| (e.name, e.detail)).collect()
        }
    }

    fn hello(name: &str) -> ClientMessage {
        ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            name: name.into(),
        }
    }

    fn full_request() -> ClientMessage {
        ClientMessage::UpdateRequest {
            incremental: false,
            rect: Rect::new(0, 0, 160, 120),
        }
    }

    fn acked_count(msgs: &[ServerMessage]) -> u64 {
        msgs.iter()
            .find_map(|m| match m {
                ServerMessage::ResumeAck {
                    client_msgs_received,
                    ..
                } => Some(*client_msgs_received),
                _ => None,
            })
            .expect("a ResumeAck")
    }

    #[test]
    fn displaced_connection_no_longer_reaches_the_adopted_session() {
        let mut rig = Rig::new();
        rig.connect(1);
        rig.send(1, hello("dup"), 0);
        rig.send(1, full_request(), 0);
        let first = rig.drain(1);
        assert!(matches!(
            first[..],
            [
                ServerMessage::Init { .. },
                ServerMessage::Update { seq: 1, .. }
            ]
        ));

        // Same name on a second connection, then Resume: it adopts the
        // session and displaces connection 1, still open at its end.
        rig.connect(2);
        rig.send(2, hello("dup"), 10);
        rig.send(2, ClientMessage::Resume { last_update_seq: 1 }, 10);
        assert_eq!(acked_count(&rig.drain(2)), 2, "Hello + UpdateRequest");
        assert!(rig.closed(1), "displaced connection closed");

        // The panel changes, then the displaced peer clicks and asks for
        // an update before its socket dies.
        let toggle = rig.ui.widget_ids()[0];
        rig.ui.widget_mut::<Toggle>(toggle).unwrap().set_on(true);
        for ev in InputEvent::click(80, 34) {
            rig.send(1, ClientMessage::Input(ev), 20);
        }
        rig.send(1, full_request(), 20);
        assert!(
            rig.ui.take_actions().is_empty(),
            "its input reached nothing"
        );

        // The adopted session counted none of it and still owes the
        // toggle's damage: the next update is seq 2 and covers it.
        rig.send(2, ClientMessage::Resume { last_update_seq: 1 }, 30);
        assert_eq!(acked_count(&rig.drain(2)), 2, "received count untouched");
        rig.poll(30);
        let next = rig.drain(2);
        let Some(ServerMessage::Update { seq, rects, .. }) = next.first() else {
            panic!("expected the toggle's update, got {next:?}");
        };
        assert_eq!(*seq, 2, "no update was spent on the closed queue");
        let toggle_rect = Rect::new(20, 20, 120, 28);
        assert!(
            rects
                .iter()
                .any(|r| r.rect.intersect(toggle_rect).is_some()),
            "damage kept for the live connection: {rects:?}"
        );
    }

    #[test]
    fn next_deadline_tracks_held_hellos_then_expiry() {
        let mut rig = Rig::new();
        assert_eq!(rig.core.next_deadline(), None, "nothing pending");
        rig.connect(1);
        rig.send(1, hello("x"), 0);
        rig.connect(2);
        rig.send(2, hello("z"), 0);
        assert_eq!(
            rig.core.next_deadline(),
            None,
            "bound sessions wait on nothing"
        );

        // "z" loses its socket: it expires one grace later...
        rig.core.disconnect(2, 100);
        assert_eq!(rig.core.next_deadline(), Some(100 + GRACE_US));
        // ...but a Hello held for the live name "x" is due first.
        rig.connect(3);
        rig.send(3, hello("x"), 200);
        assert_eq!(rig.core.next_deadline(), Some(200 + HELLO_GRACE_US));

        rig.poll(200 + HELLO_GRACE_US);
        assert!(rig.closed(1), "the held Hello displaced \"x\"");
        assert_eq!(rig.core.next_deadline(), Some(100 + GRACE_US));

        rig.poll(100 + GRACE_US);
        assert_eq!(rig.core.next_deadline(), None);
        let names: Vec<_> = rig.journal().into_iter().collect();
        assert_eq!(
            names,
            [
                ("gateway.hello_grace".into(), "x".into()),
                ("gateway.displaced".into(), "x".into()),
                ("gateway.session_expired".into(), "z".into()),
            ]
        );
    }
}
