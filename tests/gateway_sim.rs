//! The gateway host's lifecycle paths under netsim faults.
//!
//! The TCP `Gateway` is a driver for the sans-IO `GatewayCore`; this
//! file drives the same core over the deterministic network simulator,
//! with real `ClientSession`s on virtual time. Every cell of
//! {burst loss, flap, latency spike} × {resume, name collision, restart,
//! expiry, overflow} runs twice and must give byte-identical netsim
//! traces, telemetry JSON and flight-recorder traces; each prints one
//! `GATEWAY-SIM` digest line for the CI determinism diff.
//!
//! Transport model: each client owns one link, and every successful
//! reconnect opens a new gateway connection on it. A broken link is
//! half-open to the gateway, as a pulled cable is to TCP: the connection
//! stays attached and its writer blocks (its queue fills) until the
//! client comes back and displaces it, or the queue overflows. A client
//! that quits ends its connection at once. A connection the gateway
//! closes ends its client: a displaced device does not fight back for
//! its name.

use uniint::core::client::{Backoff, ClientSession};
use uniint::core::proxy::UniIntProxy;
use uniint::gateway::state::{ConnId, GatewayCore, OutQueue};
use uniint::netsim::fault::{FaultSchedule, TraceEvent};
use uniint::netsim::link::LinkProfile;
use uniint::netsim::sim::{Endpoint, Simulator};
use uniint::protocol::input::InputEvent;
use uniint::protocol::message::{
    encode_client, encode_server, ClientMessage, FrameReader, ServerMessage, PROTOCOL_VERSION,
};
use uniint::telemetry::prelude::Registry;
use uniint::trace::prelude::{Recorder, TraceHeader};
use uniint::wsys::prelude::{Theme, Toggle, Ui};
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

/// The TCP client's reconnect schedule: 10 ms doubling to 500 ms, 10 tries.
const BACKOFF: Backoff = Backoff::new(10_000, 500_000, 10);
const SESSION_GRACE_US: u64 = 5_000_000;
const SEED: u64 = 7;

/// The background fault every client link carries.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Burst,
    Flap,
    Spike,
}

impl Fault {
    const ALL: [Fault; 3] = [Fault::Burst, Fault::Flap, Fault::Spike];

    fn schedule(self) -> FaultSchedule {
        match self {
            Fault::Burst => FaultSchedule::new().burst_loss(0.05, 0.7, 0.8),
            Fault::Flap => FaultSchedule::new().flap(1_100_000, 1_400_000),
            Fault::Spike => FaultSchedule::new().latency_spike(1_000_000, 2_500_000, 150_000),
        }
    }
}

/// A client's side of its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Connected: the link carries the client's current connection.
    Up,
    /// Broken: the next reconnect attempt is due at `retry_at`.
    Down { retry_at: u64 },
    /// Quit, displaced or out of retries: never comes back.
    Gone,
}

struct Client {
    session: ClientSession,
    /// Client and gateway ends of this client's link.
    ep: Endpoint,
    server_ep: Endpoint,
    /// The gateway connection the link carries now.
    conn: ConnId,
    link: Link,
    rx: FrameReader,
    server_rx: FrameReader,
}

/// A [`ClientSession`] sink writing onto the simulated link.
fn wire(sim: &mut Simulator, ep: Endpoint) -> impl FnMut(&ClientMessage) + '_ {
    move |m| sim.send(ep, encode_client(m))
}

/// The next reconnect attempt, or `Gone` once the schedule is spent.
fn next_try(session: &mut ClientSession, now: u64) -> Link {
    match session.next_backoff() {
        Ok(delay) => Link::Down {
            retry_at: now + delay,
        },
        Err(_) => Link::Gone,
    }
}

/// The simulator driver for [`GatewayCore`].
struct Rig {
    ui: Ui,
    sim: Simulator,
    core: GatewayCore<OutQueue>,
    next_conn: ConnId,
    clients: Vec<Client>,
    registry: Registry,
    recorder: Recorder,
    faults: FaultSchedule,
}

impl Rig {
    fn new(fault: Fault) -> Rig {
        let mut ui = Ui::new(160, 120, Theme::classic(), "sim-gateway-panel");
        ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
        let registry = Registry::new();
        let mut sim = Simulator::new(SEED);
        sim.attach_telemetry(&registry);
        sim.set_tracing(true);
        let recorder = Recorder::new(TraceHeader {
            seed: SEED,
            protocol_version: PROTOCOL_VERSION,
            pixel_format: PixelFormat::Rgb888,
        });
        let core = GatewayCore::new(
            registry.clone(),
            Some(SESSION_GRACE_US),
            Some(recorder.tap()),
        );
        Rig {
            ui,
            sim,
            core,
            next_conn: 0,
            clients: Vec::new(),
            registry,
            recorder,
            faults: fault.schedule(),
        }
    }

    fn now(&self) -> u64 {
        self.sim.now_us()
    }

    /// A new client process on its own link; returns its index.
    fn join(&mut self, name: &str, seed: u64) -> usize {
        let (ep, server_ep) = self.sim.link(LinkProfile::wifi80211b());
        self.sim.set_link_faults(ep, self.faults.clone());
        let conn = self.next_conn;
        self.next_conn += 1;
        self.core.connect(conn, OutQueue::default());
        let proxy = UniIntProxy::with_telemetry(name, Registry::new());
        let mut session = ClientSession::new(proxy, seed, BACKOFF);
        session.open(wire(&mut self.sim, ep));
        self.clients.push(Client {
            session,
            ep,
            server_ep,
            conn,
            link: Link::Up,
            rx: FrameReader::new(),
            server_rx: FrameReader::new(),
        });
        self.clients.len() - 1
    }

    /// Pulls client `i`'s cable for `[start, end)` on top of the
    /// background fault.
    fn pull_cable(&mut self, i: usize, start: u64, end: u64) {
        let ep = self.clients[i].ep;
        self.sim
            .set_link_faults(ep, self.faults.clone().flap(start, end));
    }

    /// Client `i`'s process exits; the gateway sees its connection end.
    fn quit(&mut self, i: usize) {
        let now = self.now();
        let c = &mut self.clients[i];
        self.core.disconnect(c.conn, now);
        c.link = Link::Gone;
    }

    fn click(&mut self, i: usize) {
        let msgs = InputEvent::click(80, 34)
            .into_iter()
            .map(ClientMessage::Input)
            .collect();
        let c = &mut self.clients[i];
        c.session.send(msgs, wire(&mut self.sim, c.ep));
    }

    /// Runs the gateway, the links and every client up to `t_end`,
    /// waking at each arrival, reconnect attempt and core deadline.
    fn run_until(&mut self, t_end: u64) {
        loop {
            let now = self.now();
            self.core.poll(&mut self.ui, now);
            self.flush();
            self.notice_breaks();
            let retry = self
                .clients
                .iter()
                .filter_map(|c| match c.link {
                    Link::Down { retry_at } => Some(retry_at),
                    _ => None,
                })
                .min();
            let event = self.sim.next_event_us();
            let next = [event, retry, self.core.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) if t <= t_end => {
                    if event == Some(t) {
                        self.sim.step();
                    } else {
                        self.sim.run_until(t);
                    }
                }
                _ => {
                    self.sim.run_until(t_end);
                    return;
                }
            }
            self.deliver();
            self.retry_due();
        }
    }

    /// Each live connection's writer: drains its queue onto the link
    /// while the link is up. A queue the core closed ends its client
    /// once drained.
    fn flush(&mut self) {
        let now = self.now();
        for c in self.clients.iter_mut().filter(|c| c.link == Link::Up) {
            let Some(q) = self.core.queue(c.conn) else {
                continue;
            };
            while self.sim.link_up(c.ep) {
                let Some(m) = q.pop() else { break };
                self.sim.send(c.server_ep, encode_server(&m));
            }
            if q.is_closed() && q.depth() == 0 && self.sim.link_up(c.ep) {
                self.core.disconnect(c.conn, now);
                c.link = Link::Gone;
            }
        }
    }

    /// Clients whose link broke start their backoff.
    fn notice_breaks(&mut self) {
        let now = self.now();
        for c in &mut self.clients {
            if c.link == Link::Up && !self.sim.link_up(c.ep) {
                c.session.on_stall();
                c.link = next_try(&mut c.session, now);
            }
        }
    }

    /// Hands every arrived frame to its receiver: the core for the
    /// gateway end, the client's session for the client end.
    fn deliver(&mut self) {
        let now = self.now();
        let Rig {
            ui,
            sim,
            core,
            clients,
            ..
        } = self;
        for c in clients.iter_mut() {
            while let Some(bytes) = sim.recv(c.server_ep) {
                c.server_rx.feed(&bytes);
            }
            while let Some(frame) = c.server_rx.next_frame().expect("client frames") {
                let msg = ClientMessage::decode_body(&mut frame.as_slice()).expect("client msg");
                core.message(ui, c.conn, msg, now);
            }
            while let Some(bytes) = sim.recv(c.ep) {
                c.rx.feed(&bytes);
            }
            if c.link == Link::Gone {
                continue;
            }
            while let Some(frame) = c.rx.next_frame().expect("server frames") {
                let msg = ServerMessage::decode_body(&mut frame.as_slice()).expect("server msg");
                c.session
                    .on_server(&msg, wire(sim, c.ep))
                    .expect("clean wire");
            }
        }
    }

    /// Reconnect attempts that came due. A new connection re-attaches by
    /// name with an unlogged `Hello` before the session's `Resume`, as
    /// the TCP client does.
    fn retry_due(&mut self) {
        let now = self.now();
        for i in 0..self.clients.len() {
            let Link::Down { retry_at } = self.clients[i].link else {
                continue;
            };
            if retry_at > now {
                continue;
            }
            let c = &mut self.clients[i];
            if !self.sim.reconnect(c.ep) {
                c.link = next_try(&mut c.session, now);
                continue;
            }
            c.conn = self.next_conn;
            self.next_conn += 1;
            self.core.connect(c.conn, OutQueue::default());
            c.link = Link::Up;
            c.rx = FrameReader::new();
            c.server_rx = FrameReader::new();
            if c.session.is_connected() {
                let hello = ClientMessage::Hello {
                    version: PROTOCOL_VERSION,
                    name: c.session.name().to_owned(),
                };
                self.sim.send(c.ep, encode_client(&hello));
            }
            c.session.on_reconnect(wire(&mut self.sim, c.ep));
        }
    }

    fn counter(&self, name: &str) -> u64 {
        let snap = self.registry.snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    }

    /// Details of the journal events called `name`, in order.
    fn journal(&self, name: &str) -> Vec<String> {
        let events = self.registry.journal().events();
        events
            .into_iter()
            .filter(|e| e.name == name)
            .map(|e| e.detail)
            .collect()
    }

    /// Position of the first journal event `(name, detail)` at or after
    /// index `from`.
    fn journal_index(&self, name: &str, detail: &str, from: usize) -> Option<usize> {
        let events = self.registry.journal().events();
        (from..events.len()).find(|&i| events[i].name == name && events[i].detail == detail)
    }

    fn toggle(&mut self, on: bool) {
        let id = self.ui.widget_ids()[0];
        self.ui.widget_mut::<Toggle>(id).expect("toggle").set_on(on);
    }

    /// Every client still attached shows the panel exactly (the wire
    /// format is Rgb888), and so do the clients in `live`.
    fn assert_converged(&self, live: &[usize]) {
        for &i in live {
            assert_eq!(self.clients[i].link, Link::Up, "client {i} is attached");
        }
        for (i, c) in self.clients.iter().enumerate() {
            if c.link == Link::Up {
                assert_eq!(
                    c.session.server_frame(),
                    Some(self.ui.framebuffer()),
                    "client {i} ({}) converged",
                    c.session.name()
                );
            }
        }
    }

    /// The run's three recordings plus a one-line digest of them.
    fn finish(mut self, fault: Fault, path: &str) -> Outcome {
        let trace = self.sim.take_trace();
        let telemetry = self.registry.snapshot().to_json();
        let recorder = self.recorder.finish().expect("recorder yields its trace");
        let line = format!(
            "GATEWAY-SIM fault={fault:?} path={path} t_us={} netsim={:016x} telemetry={:016x} \
             recorder={:016x} reconnects={} resumes={} dropped={} expired={}",
            self.now(),
            fnv1a(format!("{trace:?}").as_bytes()),
            fnv1a(telemetry.as_bytes()),
            fnv1a(&recorder),
            self.counter("gateway.reconnects"),
            self.counter("gateway.resumes"),
            self.counter("gateway.dropped_connections"),
            self.counter("gateway.expired_sessions"),
        );
        Outcome {
            trace,
            telemetry,
            recorder,
            line,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Debug)]
struct Outcome {
    trace: Vec<TraceEvent>,
    telemetry: String,
    recorder: Vec<u8>,
    line: String,
}

/// Runs `cell` under every fault, twice each: both runs must record the
/// same bytes.
fn matrix(path: &str, cell: fn(Fault) -> Rig) {
    for fault in Fault::ALL {
        let first = cell(fault).finish(fault, path);
        let second = cell(fault).finish(fault, path);
        assert!(
            first.trace == second.trace,
            "{path}/{fault:?}: netsim trace"
        );
        assert!(
            first.telemetry == second.telemetry,
            "{path}/{fault:?}: telemetry JSON"
        );
        assert!(
            first.recorder == second.recorder,
            "{path}/{fault:?}: recorder trace"
        );
        println!("{}", first.line);
    }
}

/// A victim's cable is pulled as the witness clicks; it comes back,
/// adopts its session by name and resumes incrementally.
fn resume(fault: Fault) -> Rig {
    let mut rig = Rig::new(fault);
    let w = rig.join("witness", 1);
    let v = rig.join("victim", 2);
    rig.run_until(1_000_000);
    rig.pull_cable(v, 1_000_000, 1_400_000);
    rig.click(w);
    rig.run_until(8_000_000);

    assert!(rig.counter("gateway.reconnects") >= 1, "{fault:?}");
    assert!(rig.counter("gateway.resumes") >= 1, "{fault:?}");
    assert!(rig.journal("gateway.reconnect").contains(&"victim".into()));
    assert!(rig.clients[v].session.stats().resumes >= 1, "{fault:?}");
    assert_eq!(rig.ui.take_actions().len(), 1, "the click landed once");
    rig.assert_converged(&[w, v]);
    rig
}

#[test]
fn resume_after_a_pulled_cable() {
    matrix("resume", resume);
}

/// A second live device takes a name in use: once its held Hello's grace
/// passes, it displaces the first.
fn collision(fault: Fault) -> Rig {
    let mut rig = Rig::new(fault);
    let w = rig.join("witness", 1);
    let a = rig.join("twin", 2);
    rig.run_until(1_000_000);
    let b = rig.join("twin", 3);
    rig.run_until(2_000_000);
    rig.click(w);
    rig.run_until(8_000_000);

    assert!(rig.journal("gateway.hello_grace").contains(&"twin".into()));
    assert!(rig.journal("gateway.displaced").contains(&"twin".into()));
    let twins_up = [a, b]
        .iter()
        .filter(|&&i| rig.clients[i].link == Link::Up)
        .count();
    assert_eq!(twins_up, 1, "{fault:?}: one name, one attached device");
    rig.assert_converged(&[w]);
    rig
}

#[test]
fn name_collision_displaces_the_older_device() {
    matrix("collision", collision);
}

/// A crashed client restarts under its old name: the held Hello resolves
/// by grace into a fresh session, not an adoption.
fn restart(fault: Fault) -> Rig {
    let mut rig = Rig::new(fault);
    let w = rig.join("witness", 1);
    let old = rig.join("phoenix", 2);
    rig.run_until(1_000_000);
    rig.quit(old);
    rig.run_until(1_100_000);
    let reborn = rig.join("phoenix", 3);
    rig.run_until(2_000_000);
    rig.click(w);
    rig.run_until(8_000_000);

    assert!(rig
        .journal("gateway.hello_grace")
        .contains(&"phoenix".into()));
    assert!(!rig.journal("gateway.reconnect").contains(&"phoenix".into()));
    rig.assert_converged(&[w, reborn]);
    rig
}

#[test]
fn restart_with_the_same_name_gets_a_fresh_session() {
    matrix("restart", restart);
}

/// A client quits for good: its session expires after the grace and
/// the name is free again, with no Hello held for it.
fn expiry(fault: Fault) -> Rig {
    let mut rig = Rig::new(fault);
    let w = rig.join("witness", 1);
    let ghost = rig.join("ghost", 2);
    rig.run_until(1_000_000);
    rig.quit(ghost);
    rig.run_until(1_200_000);
    rig.click(w);
    rig.run_until(1_000_000 + SESSION_GRACE_US + 500_000);

    assert!(rig.counter("gateway.expired_sessions") >= 1, "{fault:?}");
    assert_eq!(rig.journal("gateway.session_expired"), ["ghost"]);
    let reborn = rig.join("ghost", 3);
    rig.click(w);
    rig.run_until(11_000_000);
    assert!(!rig.journal("gateway.hello_grace").contains(&"ghost".into()));
    assert_eq!(rig.ui.take_actions().len(), 2, "both clicks landed once");
    rig.assert_converged(&[w, reborn]);
    rig
}

#[test]
fn detached_session_expires_and_frees_its_name() {
    matrix("expiry", expiry);
}

/// The panel keeps changing, with a bell between changes so nothing
/// coalesces, while the victim's link is down: its queue overflows and
/// the connection is dropped; it then comes back and resumes.
fn overflow(fault: Fault) -> Rig {
    let mut rig = Rig::new(fault);
    let w = rig.join("witness", 1);
    let v = rig.join("victim", 2);
    rig.run_until(1_000_000);
    rig.pull_cable(v, 1_000_000, 2_000_000);
    for i in 0..80u64 {
        rig.toggle(i % 2 == 0);
        rig.ui.ring_bell();
        rig.run_until(1_000_000 + (i + 1) * 10_000);
    }
    rig.run_until(9_000_000);

    assert!(rig.counter("gateway.dropped_connections") >= 1, "{fault:?}");
    let dropped = rig
        .journal_index("gateway.overflow", "victim", 0)
        .expect("the victim's queue overflowed");
    assert!(
        rig.journal_index("gateway.reconnect", "victim", dropped)
            .is_some(),
        "{fault:?}: the victim came back after the drop"
    );
    assert!(rig.clients[v].session.stats().resumes >= 1, "{fault:?}");
    rig.assert_converged(&[w, v]);
    rig
}

#[test]
fn overflow_drops_the_connection_then_the_client_resumes() {
    matrix("overflow", overflow);
}
