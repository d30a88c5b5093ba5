//! `device_loop`: one user drives the standard appliance panel in process
//! and rotates through phone, PDA and TV, so every op runs the full
//! single-viewer path: device event → input plug-in → server → codec →
//! proxy → output plug-in.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uniint_apps::prelude::ControlPanelApp;
use uniint_core::plugin::{DeviceEvent, InputPlugin, Nav, OutputPlugin, RemoteKey};
use uniint_core::proxy::{fitted_view, UniIntProxy};
use uniint_core::server::UniIntServer;
use uniint_devices::prelude::{KeypadPlugin, RemotePlugin, ScreenPlugin, StylusPlugin};
use uniint_havi::prelude::*;
use uniint_protocol::message::{ClientMessage, FrameReader, ServerMessage};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Rect;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::prelude::{Button, Slider, TextField, Theme, Toggle, Ui};

use crate::common::*;

/// The three device pairs, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Phone keypad → 1-bit phone LCD.
    Phone,
    /// PDA stylus → 12-bit PDA screen.
    Pda,
    /// Infrared remote → TV.
    Tv,
}

impl Device {
    const ALL: [Device; 3] = [Device::Phone, Device::Pda, Device::Tv];

    fn name(self) -> &'static str {
        match self {
            Device::Phone => "phone",
            Device::Pda => "pda",
            Device::Tv => "tv",
        }
    }

    fn adapt_metric(self) -> &'static str {
        match self {
            Device::Phone => "devices.adapt_us.phone",
            Device::Pda => "devices.adapt_us.pda",
            Device::Tv => "devices.adapt_us.tv",
        }
    }

    fn plugins(self) -> (Box<dyn InputPlugin>, Box<dyn OutputPlugin>) {
        match self {
            Device::Phone => (
                Box::new(KeypadPlugin::new()),
                Box::new(ScreenPlugin::phone_lcd()),
            ),
            Device::Pda => (Box::new(StylusPlugin::new()), Box::new(ScreenPlugin::pda())),
            Device::Tv => (Box::new(RemotePlugin::new()), Box::new(ScreenPlugin::tv())),
        }
    }
}

/// What one user action does on the panel.
#[derive(Debug, Clone, Copy)]
enum Action {
    Focus,
    Toggle,
    Slider,
}

/// The TV + VCR + amplifier home of the paper's evaluation scene.
pub fn standard_home() -> HomeNetwork {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV-0", "living-room")
            .with_fcm(TunerFcm::new("Tuner 0", 12))
            .with_fcm(DisplayFcm::new("Display 0", 2)),
    );
    net.attach(DeviceSpec::new("VCR-1", "living-room").with_fcm(VcrFcm::new("Deck 1", 3600)));
    net.attach(DeviceSpec::new("Amp-2", "living-room").with_fcm(AmplifierFcm::new("Amp 2")));
    net
}

/// Screen rectangles of the panel's controls, by kind.
#[derive(Debug, Default)]
pub struct Targets {
    /// On/off toggles.
    pub toggles: Vec<Rect>,
    /// Sliders.
    pub sliders: Vec<Rect>,
    /// Other focusable controls (buttons, text fields).
    pub others: Vec<Rect>,
}

impl Targets {
    /// Inventories the controls of `ui`.
    pub fn of(ui: &Ui) -> Targets {
        let mut t = Targets::default();
        for id in ui.widget_ids() {
            let Some(r) = ui.widget_rect(id) else {
                continue;
            };
            if ui.widget::<Toggle>(id).is_some() {
                t.toggles.push(r);
            } else if ui.widget::<Slider>(id).is_some() {
                t.sliders.push(r);
            } else if ui.widget::<Button>(id).is_some() || ui.widget::<TextField>(id).is_some() {
                t.others.push(r);
            }
        }
        t
    }
}

struct Rig {
    net: HomeNetwork,
    app: ControlPanelApp,
    server: UniIntServer,
    proxy: UniIntProxy,
    reader: FrameReader,
    probe: Arc<Probe>,
    targets: Targets,
    rects_sent: Counter,
    payload_bytes: Counter,
    rects_decoded: Counter,
}

impl Rig {
    /// Builds the scene, connects, and shows the first frame on the phone.
    fn build() -> Rig {
        let mut net = standard_home();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        let registry = Registry::new();
        let server = UniIntServer::with_telemetry(app.ui(), registry.clone());
        let proxy = UniIntProxy::with_telemetry("device-loop", registry.clone());
        let targets = Targets::of(app.ui());
        let mut rig = Rig {
            net,
            server,
            proxy,
            reader: FrameReader::new(),
            probe: Arc::new(Probe::default()),
            targets,
            rects_sent: registry.counter("server.rects_sent"),
            payload_bytes: registry.counter("server.payload_bytes"),
            rects_decoded: registry.counter("proxy.rects_decoded"),
            app: {
                app.ui_mut().render();
                app
            },
        };
        let hello = rig.proxy.connect();
        let mut spans = Spans::default();
        let mut tally = Tally::default();
        let mut enc = EncodeTally::default();
        rig.deliver(hello, &mut spans, &mut tally, &mut enc);
        rig.switch(Device::Phone, &mut spans, &mut tally, &mut enc);
        rig
    }

    /// Delivers client messages to the server and runs the exchange
    /// until the system is quiet.
    fn deliver(
        &mut self,
        msgs: Vec<ClientMessage>,
        spans: &mut Spans,
        tally: &mut Tally,
        enc: &mut EncodeTally,
    ) {
        let mut replies = Vec::new();
        for m in msgs {
            let t = spans.start();
            replies.extend(self.server.handle_message(self.app.ui_mut(), m));
            spans.stop("server.handle_message_us", t, 0);
        }
        enc.pump(&replies);
        self.receive(replies, spans, tally, enc);
    }

    /// Passes server messages through the wire codec into the proxy, and
    /// the proxy's replies back to the server, until nothing is left.
    fn receive(
        &mut self,
        msgs: Vec<ServerMessage>,
        spans: &mut Spans,
        tally: &mut Tally,
        enc: &mut EncodeTally,
    ) {
        let mut queue: VecDeque<ServerMessage> = msgs.into();
        while let Some(m) = queue.pop_front() {
            let decoded = through_codec(&mut self.reader, &m, spans, tally);
            let adapt_before = self.probe.adapt_ns();
            let t = spans.start();
            let out = match decoded.and_then(|m| self.proxy.handle_server(&m)) {
                Ok(out) => out,
                Err(_) => {
                    tally.errors += 1;
                    continue;
                }
            };
            spans.stop(
                "proxy.handle_server_us",
                t,
                self.probe.adapt_ns() - adapt_before,
            );
            if out.frame.is_some() && tally.frame_arrived.is_none() {
                tally.frame_arrived = Some(Instant::now());
            }
            for cm in out.messages {
                let t = spans.start();
                let replies = self.server.handle_message(self.app.ui_mut(), cm);
                spans.stop("server.handle_message_us", t, 0);
                enc.pump(&replies);
                queue.extend(replies);
            }
        }
    }

    /// Switches input and output to `device`; returns when quiet.
    fn switch(
        &mut self,
        device: Device,
        spans: &mut Spans,
        tally: &mut Tally,
        enc: &mut EncodeTally,
    ) {
        let (input, output) = device.plugins();
        self.proxy
            .attach_input(Box::new(TimedInput::new(input, self.probe.clone())));
        let msgs = self
            .proxy
            .attach_output(Box::new(TimedOutput::new(output, self.probe.clone())));
        self.deliver(msgs, spans, tally, enc);
    }

    /// One device event, run until the system is quiet.
    fn device_event(
        &mut self,
        ev: &DeviceEvent,
        spans: &mut Spans,
        tally: &mut Tally,
        enc: &mut EncodeTally,
    ) {
        let translate_before = self.probe.translate_ns();
        let t = spans.start();
        let msgs = self.proxy.device_input(ev);
        spans.stop(
            "proxy.device_input_us",
            t,
            self.probe.translate_ns() - translate_before,
        );
        self.deliver(msgs, spans, tally, enc);
        let t = spans.start();
        self.app.ui_mut().render();
        spans.stop("wsys.render_us", t, 0);
        let t = spans.start();
        self.app.process(&mut self.net);
        spans.stop("apps.process_us", t, 0);
        let t = spans.start();
        self.app.ui_mut().render();
        spans.stop("wsys.render_us", t, 0);
        let t = spans.start();
        let msgs = self.server.pump(self.app.ui_mut());
        spans.stop("server.pump_us", t, 0);
        enc.pump(&msgs);
        self.receive(msgs, spans, tally, enc);
    }

    /// Whether the proxy shows what the server shows.
    fn in_sync(&self) -> bool {
        let want = reduced(self.app.ui().framebuffer(), self.proxy.transport_format());
        self.proxy.server_frame().map(Framebuffer::pixels) == Some(want.pixels())
    }

    /// The device events of one action on `device`.
    fn events(&self, device: Device, action: Action, rng: &mut Rng) -> Vec<DeviceEvent> {
        let pick = |v: &[Rect], rng: &mut Rng| v[rng.range(0, v.len() as u64 - 1) as usize];
        match device {
            Device::Phone => vec![match action {
                Action::Focus => {
                    DeviceEvent::KeypadNav(if rng.coin() { Nav::Down } else { Nav::Up })
                }
                Action::Toggle => DeviceEvent::KeypadSelect,
                Action::Slider => {
                    DeviceEvent::KeypadNav(if rng.coin() { Nav::Right } else { Nav::Left })
                }
            }],
            Device::Tv => vec![DeviceEvent::Remote(match action {
                Action::Focus if rng.coin() => RemoteKey::ChannelUp,
                Action::Focus => RemoteKey::ChannelDown,
                Action::Toggle if rng.coin() => RemoteKey::Power,
                Action::Toggle => RemoteKey::Mute,
                Action::Slider if rng.coin() => RemoteKey::VolumeUp,
                Action::Slider => RemoteKey::VolumeDown,
            })],
            Device::Pda => {
                let (sx, sy) = match action {
                    Action::Focus => centre(pick(&self.targets.others, rng)),
                    Action::Toggle => centre(pick(&self.targets.toggles, rng)),
                    Action::Slider => {
                        let r = pick(&self.targets.sliders, rng);
                        let x = r.x + 2 + rng.range(0, r.w as u64 - 4) as i32;
                        (x as u16, centre(r).1)
                    }
                };
                let server = self.proxy.server_size().expect("connected");
                let view = fitted_view(server, ScreenPlugin::pda().caps().size);
                let x = (sx as u64 * view.w as u64 / server.w as u64) as u16;
                let y = (sy as u64 * view.h as u64 / server.h as u64) as u16;
                vec![
                    DeviceEvent::StylusDown { x, y },
                    DeviceEvent::StylusUp { x, y },
                ]
            }
        }
    }
}

/// How many times the set-up is built; `setup_s` is the median. A set-up
/// takes milliseconds, and the host's speed changes within a second, so
/// the builds after the first are spread over the measured window.
const SETUP_REPS: u32 = 41;

/// Builds a rig, times it and checks its first frame.
fn timed_build(setups: &mut Vec<Duration>, out: &mut Outcome) -> Rig {
    let t = Instant::now();
    let rig = Rig::build();
    setups.push(t.elapsed());
    out.attempted += 1;
    if !rig.in_sync() {
        out.failed += 1;
    }
    rig
}

/// Runs the workload.
pub fn run(s: Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rig = timed_build(&mut setups, &mut out);
    let setup_every = s.window / SETUP_REPS;

    let mut rng = Rng::new(s.seed, 1);
    // Traced ops are drawn at random so they mirror the untraced mix.
    let mut pick_traced = Rng::new(s.seed, 101);
    let mut spans = Spans::default();
    let mut enc = EncodeTally::default();
    let mut all = Samples::default();
    let mut per_device: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut switches = Samples::default();
    let (mut traced, mut untraced) = (
        BTreeMap::<&str, Samples>::new(),
        BTreeMap::<&str, Samples>::new(),
    );
    let (mut wire_bytes, mut frames, mut rects, mut payload, mut decoded) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut adapt_px, mut damaged_px) = (0u64, 0u64);
    let mut adapt_by_device: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut rotations = 0u64;
    // The first rotation warms caches and allocator up and is not recorded.
    let mut recording = false;
    let mut start = Instant::now();
    while !recording || start.elapsed() < s.window {
        if recording && start.elapsed() >= setup_every * setups.len() as u32 {
            timed_build(&mut setups, &mut out);
        }
        // One k per rotation keeps the three devices' shares equal.
        let k = rng.range(3, 6) as usize;
        for device in Device::ALL {
            let mut tally = Tally::default();
            let mut sink = EncodeTally::default();
            spans.on = false;
            rig.probe.set_on(false);
            let t0 = Instant::now();
            rig.switch(device, &mut spans, &mut tally, &mut sink);
            out.attempted += 1;
            match tally.frame_arrived {
                Some(t) if tally.errors == 0 && rig.in_sync() => {
                    if recording {
                        switches.push((t - t0).as_secs_f64() * 1e3);
                    }
                }
                _ => out.failed += 1,
            }
            let mut actions: Vec<Action> = [Action::Focus, Action::Toggle, Action::Slider]
                .into_iter()
                .flat_map(|a| std::iter::repeat_n(a, k))
                .collect();
            rng.shuffle(&mut actions);
            for action in actions {
                for ev in rig.events(device, action, &mut rng) {
                    let on = recording && s.trace && pick_traced.coin();
                    spans.on = on;
                    rig.probe.set_on(on);
                    let mut tally = Tally::default();
                    let counters = (
                        rig.rects_sent.get(),
                        rig.payload_bytes.get(),
                        rig.rects_decoded.get(),
                    );
                    let px_before = (rig.probe.adapt_px.load(Ordering::Relaxed), enc.pixels());
                    let adapt_before = rig.probe.adapt_ns();
                    let t0 = Instant::now();
                    rig.device_event(&ev, &mut spans, &mut tally, &mut enc);
                    let ms = ms_since(t0);
                    out.attempted += 1;
                    if tally.errors > 0 || !rig.in_sync() {
                        out.failed += 1;
                        continue;
                    }
                    if !recording {
                        continue;
                    }
                    all.push(ms);
                    per_device.entry(device.name()).or_default().push(ms);
                    let split = if on { &mut traced } else { &mut untraced };
                    split.entry(device.name()).or_default().push(ms);
                    if on {
                        *adapt_by_device.entry(device.adapt_metric()).or_default() +=
                            rig.probe.adapt_ns() - adapt_before;
                    }
                    wire_bytes += tally.wire_bytes;
                    frames += tally.frames;
                    rects += rig.rects_sent.get() - counters.0;
                    payload += rig.payload_bytes.get() - counters.1;
                    decoded += rig.rects_decoded.get() - counters.2;
                    adapt_px += rig.probe.adapt_px.load(Ordering::Relaxed) - px_before.0;
                    damaged_px += enc.pixels() - px_before.1;
                }
            }
        }
        if recording {
            rotations += 1;
        } else {
            recording = true;
            start = Instant::now();
        }
    }
    while setups.len() < SETUP_REPS as usize {
        timed_build(&mut setups, &mut out);
    }
    out.e2e.insert("setup_s", median_s(setups));
    rig.probe.set_on(false);

    // In process, throughput is per second of timed ops.
    latency_metrics(
        "device_loop",
        &mut out,
        &all,
        all.len() as f64 / (all.sum() / 1e3),
    );
    let n = all.len().max(1) as f64;
    out.e2e.insert("wire_bytes_per_op", wire_bytes as f64 / n);
    println!("device_loop: {rotations} rotations of phone, PDA and TV");
    for d in Device::ALL {
        let v = per_device.get(d.name()).cloned().unwrap_or_default();
        println!("  {}_ms_p50 {:.4} ms (n={})", d.name(), v.pct(0.5), v.len());
    }
    println!(
        "  switch_ms_p50 {:.4} ms, switch_ms_p90 {:.4} ms (n={})",
        switches.pct(0.5),
        switches.pct(0.9),
        switches.len()
    );

    if s.trace {
        let traced_ops: usize = traced.values().map(Samples::len).sum();
        let t_ops = traced_ops.max(1) as f64;
        let l = &mut out.layers;
        let mut adapt_total = 0.0;
        for (name, ns) in &adapt_by_device {
            let dev = Device::ALL
                .iter()
                .find(|d| d.adapt_metric() == *name)
                .expect("known");
            let dev_ops = traced.get(dev.name()).map(Samples::len).unwrap_or(0).max(1) as f64;
            l.insert(name, *ns as f64 / 1e3 / dev_ops);
            adapt_total += *ns as f64 / 1e3 / t_ops;
        }
        l.insert(
            "devices.translate_us",
            rig.probe.translate_ns() as f64 / 1e3 / t_ops,
        );
        spans.report(l, t_ops);
        l.insert(
            "devices.adapt_useful_ratio",
            damaged_px as f64 / adapt_px.max(1) as f64,
        );
        l.insert("server.rects_per_op", rects as f64 / n);
        l.insert("server.payload_bytes_per_op", payload as f64 / n);
        l.insert(
            "server.bytes_per_pixel",
            payload as f64 / enc.pixels().max(1) as f64,
        );
        l.insert("proxy.rects_decoded_per_op", decoded as f64 / n);
        l.insert("protocol.frames_per_op", frames as f64 / n);
        enc.report(l, n);
        let pairs: Vec<_> = traced
            .iter()
            .filter_map(|(class, t)| untraced.get(class).map(|u| (t, u)))
            .collect();
        l.insert("trace.overhead_us", overhead_us(&pairs));
        let mut rows = layer_rows(
            l,
            &[
                "devices.translate_us",
                "proxy.device_input_us",
                "server.handle_message_us",
                "wsys.render_us",
                "apps.process_us",
                "server.pump_us",
                "protocol.encode_server_us",
                "protocol.decode_body_us",
                "proxy.handle_server_us",
            ],
        );
        rows.push(("devices.adapt_us (all devices)", adapt_total));
        let traced_all = traced.values().fold(Samples::default(), |mut all, v| {
            all.extend(v);
            all
        });
        print_layer_table("device_loop", l, &rows, traced_all.mean() * 1e3);
    }
    out
}
