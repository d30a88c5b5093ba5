//! `gateway_2c`: a loopback `Gateway` serves two `GatewayClient`s, each
//! switching its own toggle on the shared panel. One thread drives both
//! connections, one op at a time, so the bench adds a single thread to
//! the gateway's own. An op is one switch until that client's
//! framebuffer shows the toggle's new state.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uniint_core::plugin::{DeviceFrame, OutputCaps, OutputPlugin};
use uniint_gateway::prelude::{ClientConfig, Gateway, GatewayClient, GatewayConfig};
use uniint_protocol::input::{InputEvent, KeySym};
use uniint_protocol::message::ClientMessage;
use uniint_raster::color::Color;
use uniint_raster::dither::DitherMode;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::ScaleFilter;
use uniint_telemetry::registry::Registry;
use uniint_wsys::prelude::{Label, Theme, Toggle, Ui};

use crate::common::*;

/// How long one op may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// The shared panel: one toggle per client, each bound to its own key.
/// The clients switch toggles by key because the panel has one pointer,
/// and two clients pressing concurrently would interleave into drags.
fn panel() -> (Ui, [(Rect, char); 2]) {
    let mut ui = Ui::new(240, 96, Theme::classic(), "gateway-panel");
    ui.add(Label::new("Shared lamps"), Rect::new(8, 4, 224, 16));
    let toggles = [
        (Rect::new(10, 36, 100, 28), 'a'),
        (Rect::new(130, 36, 100, 28), 'b'),
    ];
    for (i, (r, key)) in toggles.iter().enumerate() {
        let id = ui.add(Toggle::new(format!("Lamp {}", i + 1), false), *r);
        ui.bind_shortcut(KeySym::from_char(*key), id);
    }
    ui.render();
    (ui, toggles)
}

/// FNV-1a over the pixels of `rect`.
fn region_digest(fb: &Framebuffer, rect: Rect) -> u64 {
    let (_, px) = fb.read_rect(rect);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in px {
        for b in [c.r, c.g, c.b] {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Region digests of each toggle, `[off, on]`, rendered locally.
fn toggle_looks() -> [[u64; 2]; 2] {
    let (mut ui, toggles) = panel();
    let off = toggles.map(|(r, _)| region_digest(ui.framebuffer(), r));
    for (_, key) in toggles {
        for ev in InputEvent::key_tap(KeySym::from_char(key)) {
            ui.dispatch(ev);
        }
    }
    ui.render();
    let on = toggles.map(|(r, _)| region_digest(ui.framebuffer(), r));
    [[off[0], on[0]], [off[1], on[1]]]
}

/// A trivial full-colour output plug-in that watches both toggles: each
/// adapted frame stores the toggle regions' digests and when it was seen.
#[derive(Debug)]
struct ToggleWatch {
    rects: [Rect; 2],
    size: (u32, u32),
    seen: Arc<[AtomicU64; 2]>,
    seen_ns: Arc<AtomicU64>,
    epoch: Instant,
}

impl OutputPlugin for ToggleWatch {
    fn kind(&self) -> &'static str {
        "toggle-watch"
    }

    fn caps(&self) -> OutputCaps {
        OutputCaps {
            size: uniint_raster::geom::Size::new(self.size.0, self.size.1),
            format: PixelFormat::Rgb888,
            dither: DitherMode::None,
            scale: ScaleFilter::Box,
        }
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        for (slot, rect) in self.seen.iter().zip(self.rects) {
            slot.store(region_digest(server_frame, rect), Ordering::Relaxed);
        }
        self.seen_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        DeviceFrame::new(Framebuffer::new(1, 1, Color::BLACK), PixelFormat::Rgb888, 3)
    }
}

/// One connected client with its watch handles.
struct Client {
    client: GatewayClient,
    /// Region digests this client last saw, one per toggle.
    seen: Arc<[AtomicU64; 2]>,
    seen_ns: Arc<AtomicU64>,
    epoch: Instant,
}

impl Client {
    fn connect(addr: SocketAddr, index: usize, seed: u64) -> Client {
        let (ui, toggles) = panel();
        let epoch = Instant::now();
        let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let seen_ns = Arc::new(AtomicU64::new(0));
        let mut client = GatewayClient::connect_with(
            addr,
            format!("client-{index}"),
            seed ^ index as u64,
            ClientConfig::default(),
            Registry::new(),
        )
        .expect("client connects to loopback gateway");
        client.attach_output(Box::new(ToggleWatch {
            rects: toggles.map(|(r, _)| r),
            size: (ui.size().w, ui.size().h),
            seen: seen.clone(),
            seen_ns: seen_ns.clone(),
            epoch,
        }));
        Client {
            client,
            seen,
            seen_ns,
            epoch,
        }
    }

    /// Pumps until `toggle` reads `want` or `deadline` passes.
    fn wait_for(&mut self, toggle: usize, want: u64, deadline: Instant) -> bool {
        while self.seen[toggle].load(Ordering::Relaxed) != want {
            if Instant::now() > deadline {
                return false;
            }
            if self.client.pump_once().is_err() {
                return false;
            }
        }
        true
    }

    /// Pumps until nothing has arrived for `quiet`.
    fn settle(&mut self, quiet: Duration) {
        let mut last = Instant::now();
        while last.elapsed() < quiet {
            match self.client.pump_once() {
                Ok(true) => last = Instant::now(),
                Ok(false) => {}
                Err(_) => break,
            }
        }
    }
}

/// What the driving loop measured.
#[derive(Default)]
struct DriveRun {
    traced: Samples,
    untraced: Samples,
    attempted: u64,
    failed: u64,
    send_ns: u64,
    pump_ns: u64,
    queue_depth_max: i64,
    elapsed: Duration,
}

/// How long the driving loop runs.
#[derive(Clone, Copy)]
enum Budget {
    /// A fixed number of unrecorded ops, to warm caches, allocator and
    /// sockets up.
    Warmup(u64),
    /// The measured window.
    Window(Duration),
}

/// The closed loop over both connections, driven from one thread so that
/// one op is in flight at a time: each op, a seeded pick of client
/// switches its own toggle and is timed until its framebuffer shows the
/// new state. Outside the timed interval the other client must then show
/// the same state, so every op is checked on both connections.
fn drive(
    cs: &mut [Client; 2],
    on: &mut [bool; 2],
    looks: &[[u64; 2]; 2],
    budget: Budget,
    s: Settings,
    registry: &Registry,
    rng: &mut Rng,
) -> DriveRun {
    let depth = registry.gauge("gateway.queue_depth");
    let mut run = DriveRun::default();
    let start = Instant::now();
    let mut i = 0u64;
    while match budget {
        Budget::Warmup(n) => i < n,
        Budget::Window(w) => start.elapsed() < w,
    } {
        i += 1;
        let who = rng.range(0, 1) as usize;
        let other = 1 - who;
        let traced = s.trace && rng.coin();
        let key = KeySym::from_char(['a', 'b'][who]);
        let stalls = |cs: &[Client; 2]| cs.iter().map(|c| c.client.stats().stalls).sum::<u64>();
        let stalls_before = stalls(cs);
        let want = looks[who][usize::from(!on[who])];
        let t0 = Instant::now();
        cs[who]
            .client
            .send_messages(InputEvent::key_tap(key).map(ClientMessage::Input).to_vec());
        let sent = t0.elapsed();
        let ok = cs[who].wait_for(who, want, t0 + OP_TIMEOUT);
        let end = Instant::now();
        let ok = ok && cs[other].wait_for(who, want, end + OP_TIMEOUT);
        run.attempted += 1;
        run.queue_depth_max = run.queue_depth_max.max(depth.get());
        if ok && stalls(cs) == stalls_before {
            on[who] = !on[who];
            let ms = (end - t0).as_secs_f64() * 1e3;
            if traced {
                run.traced.push(ms);
                run.send_ns += sent.as_nanos() as u64;
                let c = &cs[who];
                let seen = c.epoch + Duration::from_nanos(c.seen_ns.load(Ordering::Relaxed));
                run.pump_ns += end.saturating_duration_since(seen).as_nanos() as u64;
            } else {
                run.untraced.push(ms);
            }
        } else {
            // Failed op: wait for the panel to settle, then re-read the
            // toggles' state before going on.
            run.failed += 1;
            for c in cs.iter_mut() {
                c.settle(Duration::from_millis(100));
            }
            for (t, state) in on.iter_mut().enumerate() {
                *state = cs[0].seen[t].load(Ordering::Relaxed) == looks[t][1];
            }
        }
    }
    run.elapsed = start.elapsed();
    for c in cs.iter_mut() {
        c.settle(Duration::from_millis(50));
    }
    run
}

/// Spawns the gateway and connects both clients through their first
/// frames.
fn build(seed: u64, looks: &[[u64; 2]; 2]) -> (Gateway, [Client; 2]) {
    let (ui, _) = panel();
    let gw = Gateway::spawn(ui, GatewayConfig::default(), Registry::new())
        .expect("gateway binds loopback");
    let mut clients = [0, 1].map(|i| Client::connect(gw.local_addr(), i, seed));
    for c in &mut clients {
        let deadline = Instant::now() + Duration::from_secs(10);
        let ok = (0..2).all(|t| c.wait_for(t, looks[t][0], deadline));
        assert!(ok, "first frame never arrived");
    }
    (gw, clients)
}

/// How many times the set-up is built; `setup_s` is the median. A set-up
/// takes milliseconds, much of it the accept thread's 5 ms poll, whose
/// phase is random, so the median needs many samples.
const SETUP_REPS: usize = 41;

/// Runs the workload.
pub fn run(s: Settings) -> Outcome {
    let looks = toggle_looks();
    let mut setups = Vec::new();
    let mut built: Option<(Gateway, [Client; 2])> = None;
    for _ in 0..SETUP_REPS {
        if let Some((gw, clients)) = built.take() {
            drop(clients);
            gw.shutdown();
        }
        let t = Instant::now();
        built = Some(build(s.seed, &looks));
        setups.push(t.elapsed());
    }
    let (gw, mut clients) = built.expect("built at least once");
    let mut out = Outcome::default();
    out.e2e.insert("setup_s", median_s(setups));

    let registry = gw.registry().clone();
    let mut rng = Rng::new(s.seed, 103);
    let mut on = [false; 2];
    let warm = drive(
        &mut clients,
        &mut on,
        &looks,
        Budget::Warmup(200),
        s,
        &registry,
        &mut rng,
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    let count = |name: &str| registry.counter(name).get();
    let before = [
        count("gateway.frames_in"),
        count("gateway.bytes_out"),
        count("gateway.write_coalesced"),
        count("gateway.dropped_connections"),
    ];
    let run = drive(
        &mut clients,
        &mut on,
        &looks,
        Budget::Window(s.window),
        s,
        &registry,
        &mut rng,
    );
    let delta = |i: usize, name: &str| (count(name) - before[i]) as f64;
    let frames_in = delta(0, "gateway.frames_in");
    let bytes_out = delta(1, "gateway.bytes_out");
    let coalesced = delta(2, "gateway.write_coalesced");
    let dropped = delta(3, "gateway.dropped_connections");
    let ui = gw.shutdown();

    out.attempted += run.attempted;
    out.failed += run.failed;
    let (mut stalls, mut resumes) = (0u64, 0u64);
    for c in &clients {
        // Final full-frame check against the panel the gateway returned.
        out.attempted += 1;
        if c.client.proxy.server_frame().map(Framebuffer::digest) != Some(ui.framebuffer().digest())
        {
            out.failed += 1;
        }
        stalls += c.client.stats().stalls;
        resumes += c.client.stats().resumes;
    }
    // A reconnect during an op already failed that op in `drive`.
    out.failed += dropped as u64;

    let DriveRun {
        traced,
        untraced,
        send_ns,
        pump_ns,
        queue_depth_max: depth_max,
        elapsed: wall,
        ..
    } = run;
    let mut all = traced.clone();
    all.extend(&untraced);
    // Over the gateway, throughput is per wall second, checks included.
    latency_metrics(
        "gateway_2c",
        &mut out,
        &all,
        all.len() as f64 / wall.as_secs_f64(),
    );
    let n = all.len().max(1) as f64;
    out.e2e.insert("wire_bytes_per_op", bytes_out / n);
    println!("gateway_2c: {:.2} s wall", wall.as_secs_f64());

    if s.trace {
        let t_ops = traced.len().max(1) as f64;
        let op_us = traced.mean() * 1e3;
        let l = &mut out.layers;
        let send_us = send_ns as f64 / 1e3 / t_ops;
        let pump_us = pump_ns as f64 / 1e3 / t_ops;
        l.insert("gateway.client_send_us", send_us);
        l.insert("gateway.client_pump_us", pump_us);
        l.insert("gateway.server_side_us", op_us - send_us - pump_us);
        l.insert("gateway.frames_in_per_op", frames_in / n);
        l.insert("gateway.bytes_out_per_op", bytes_out / n);
        l.insert("gateway.write_coalesced_per_op", coalesced / n);
        l.insert("gateway.queue_depth_max", depth_max as f64);
        l.insert("gateway.dropped_connections", dropped);
        l.insert("proxy.stalls", stalls as f64);
        l.insert("proxy.resumes", resumes as f64);
        l.insert("trace.overhead_us", overhead_us(&[(&traced, &untraced)]));
        let rows = layer_rows(
            l,
            &[
                "gateway.client_send_us",
                "gateway.server_side_us",
                "gateway.client_pump_us",
            ],
        );
        print_layer_table("gateway_2c", l, &rows, op_us);
        println!(
            "  (server_side_us covers loopback transit, the gateway's reader, state and writer \
             threads, and the client's socket read and decode before its toggle is applied)"
        );
    }
    out
}
