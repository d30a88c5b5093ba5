//! `fanout_64`: 64 in-process viewers of one `MultiServer` share the
//! standard panel while one operator clicks its toggles. Viewers do no
//! output adaptation, so per-viewer server encoding dominates each op.

use std::time::Instant;

use uniint_apps::prelude::ControlPanelApp;
use uniint_core::multi::MultiServer;
use uniint_core::proxy::UniIntProxy;
use uniint_havi::prelude::HomeNetwork;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, FrameReader, ServerMessage};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::pixel::PixelFormat;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::prelude::Theme;

use crate::common::*;
use crate::device_loop::{standard_home, Targets};

/// Viewers per transport format: most full colour, the rest spread over
/// the device formats.
const FORMAT_SPLIT: [(PixelFormat, usize); 6] = [
    (PixelFormat::Rgb888, 40),
    (PixelFormat::Rgb565, 8),
    (PixelFormat::Rgb444, 6),
    (PixelFormat::Gray8, 4),
    (PixelFormat::Gray4, 3),
    (PixelFormat::Mono1, 3),
];

struct Viewer {
    proxy: UniIntProxy,
    reader: FrameReader,
    /// The format this viewer asked the server for. The proxy itself
    /// has no output plug-in, so it does not know it.
    format: PixelFormat,
}

struct Rig {
    net: HomeNetwork,
    app: ControlPanelApp,
    multi: MultiServer,
    viewers: Vec<Viewer>,
    targets: Targets,
    rects_sent: Counter,
    payload_bytes: Counter,
    rects_decoded: Counter,
}

impl Rig {
    /// Builds the panel and connects every viewer through its first full
    /// frame in its own format.
    fn build() -> Rig {
        let mut net = standard_home();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        app.ui_mut().render();
        let server_reg = Registry::new();
        let proxy_reg = Registry::new();
        let mut multi = MultiServer::new();
        let mut viewers = Vec::new();
        for (format, n) in FORMAT_SPLIT {
            for _ in 0..n {
                let id = multi.accept_with_telemetry(app.ui(), server_reg.clone());
                debug_assert_eq!(id, viewers.len());
                let mut proxy =
                    UniIntProxy::with_telemetry(format!("viewer-{id}"), proxy_reg.clone());
                let mut msgs = proxy.connect();
                msgs.push(ClientMessage::SetPixelFormat(format));
                viewers.push((proxy, msgs, format));
            }
        }
        let targets = Targets::of(app.ui());
        let mut rig = Rig {
            net,
            app,
            multi,
            viewers: Vec::new(),
            targets,
            rects_sent: server_reg.counter("server.rects_sent"),
            payload_bytes: server_reg.counter("server.payload_bytes"),
            rects_decoded: proxy_reg.counter("proxy.rects_decoded"),
        };
        let mut pending = Vec::new();
        for (proxy, msgs, format) in viewers {
            pending.push(msgs);
            rig.viewers.push(Viewer {
                proxy,
                reader: FrameReader::new(),
                format,
            });
        }
        let mut spans = Spans::default();
        let mut tally = Tally::default();
        for (id, msgs) in pending.into_iter().enumerate() {
            rig.deliver(id, msgs, &mut spans, &mut tally);
        }
        rig.settle(&mut spans, &mut tally, &mut EncodeTally::default());
        rig
    }

    /// Client messages from viewer `id` to the server, and everything
    /// they provoke, until quiet.
    fn deliver(
        &mut self,
        id: usize,
        msgs: Vec<ClientMessage>,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        for m in msgs {
            let t = spans.start();
            let replies = self.multi.handle_message(self.app.ui_mut(), id, m);
            spans.stop("server.handle_message_us", t, 0);
            self.receive(id, replies, spans, tally);
        }
    }

    /// Server messages for viewer `id`, through the codec into its proxy.
    fn receive(
        &mut self,
        id: usize,
        msgs: Vec<ServerMessage>,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        for m in msgs {
            let v = &mut self.viewers[id];
            let decoded = through_codec(&mut v.reader, &m, spans, tally);
            let t = spans.start();
            let out = decoded.and_then(|m| v.proxy.handle_server(&m));
            spans.stop("proxy.handle_server_us", t, 0);
            match out {
                Ok(out) => self.deliver(id, out.messages, spans, tally),
                Err(_) => tally.errors += 1,
            }
        }
    }

    /// Pumps shared damage to every viewer until no update is left.
    fn settle(&mut self, spans: &mut Spans, tally: &mut Tally, enc: &mut EncodeTally) {
        loop {
            let t = spans.start();
            let batches = self.multi.pump_all(self.app.ui_mut());
            spans.stop("server.pump_us", t, 0);
            if batches.is_empty() {
                break;
            }
            enc.pump(batches.iter().flat_map(|(_, m)| m));
            for (id, msgs) in batches {
                self.receive(id, msgs, spans, tally);
            }
        }
    }

    /// One operator click on the toggle at `(x, y)`, until every viewer
    /// has applied it.
    fn click(
        &mut self,
        x: u16,
        y: u16,
        spans: &mut Spans,
        tally: &mut Tally,
        enc: &mut EncodeTally,
    ) {
        let msgs = InputEvent::click(x, y).map(ClientMessage::Input).to_vec();
        self.deliver(0, msgs, spans, tally);
        let t = spans.start();
        self.app.ui_mut().render();
        spans.stop("wsys.render_us", t, 0);
        let t = spans.start();
        self.app.process(&mut self.net);
        spans.stop("apps.process_us", t, 0);
        let t = spans.start();
        self.app.ui_mut().render();
        spans.stop("wsys.render_us", t, 0);
        self.settle(spans, tally, enc);
    }

    /// Whether every viewer applied a new update since `seqs` and shows
    /// the server's frame in its own format.
    fn all_in_sync(&self, seqs: &[u64]) -> bool {
        let server = self.app.ui().framebuffer();
        let mut refs: Vec<(PixelFormat, Framebuffer)> = Vec::new();
        self.viewers.iter().zip(seqs).all(|(v, &before)| {
            let fmt = v.format;
            let fb = match refs.iter().find(|(f, _)| *f == fmt) {
                Some((_, fb)) => fb,
                None => {
                    refs.push((fmt, reduced(server, fmt)));
                    &refs.last().expect("just pushed").1
                }
            };
            v.proxy.last_update_seq() > before
                && v.proxy.server_frame().map(|f| f.pixels()) == Some(fb.pixels())
        })
    }

    fn seqs(&self) -> Vec<u64> {
        self.viewers
            .iter()
            .map(|v| v.proxy.last_update_seq())
            .collect()
    }
}

/// How many times the set-up is built; `setup_s` is the median (a set-up takes about half a second).
const SETUP_REPS: usize = 7;

/// Runs the workload.
pub fn run(s: Settings) -> Outcome {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let r = Rig::build();
        setups.push(t.elapsed());
        rig = Some(r);
    }
    let mut rig = rig.expect("built at least once");
    let mut out = Outcome::default();
    out.e2e.insert("setup_s", median_s(setups));
    println!(
        "fanout_64: {} viewers, formats {:?}",
        rig.viewers.len(),
        FORMAT_SPLIT.map(|(f, n)| format!("{f:?}x{n}"))
    );

    let mut rng = Rng::new(s.seed, 2);
    let mut pick_traced = Rng::new(s.seed, 102);
    let mut spans = Spans::default();
    let mut enc = EncodeTally::default();
    let mut all = Samples::default();
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let (mut wire_bytes, mut frames, mut rects, mut payload, mut decoded) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    // The first clicks warm caches and allocator up and are not recorded.
    const WARMUP: u64 = 5;
    let mut start = Instant::now();
    let mut ops = 0u64;
    while ops < WARMUP || start.elapsed() < s.window {
        if ops == WARMUP {
            start = Instant::now();
        }
        let (x, y) = centre(
            rig.targets.toggles[rng.range(0, rig.targets.toggles.len() as u64 - 1) as usize],
        );
        spans.on = ops >= WARMUP && s.trace && pick_traced.coin();
        let mut tally = Tally::default();
        let seqs = rig.seqs();
        let counters = (
            rig.rects_sent.get(),
            rig.payload_bytes.get(),
            rig.rects_decoded.get(),
        );
        let t0 = Instant::now();
        rig.click(x, y, &mut spans, &mut tally, &mut enc);
        let ms = ms_since(t0);
        ops += 1;
        out.attempted += 1;
        if tally.errors > 0 || !rig.all_in_sync(&seqs) {
            out.failed += 1;
            continue;
        }
        if ops <= WARMUP {
            continue;
        }
        all.push(ms);
        if spans.on {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        wire_bytes += tally.wire_bytes;
        frames += tally.frames;
        rects += rig.rects_sent.get() - counters.0;
        payload += rig.payload_bytes.get() - counters.1;
        decoded += rig.rects_decoded.get() - counters.2;
    }
    let final_ok = rig.viewers.iter().all(|v| {
        v.proxy.server_frame().map(Framebuffer::digest)
            == Some(reduced(rig.app.ui().framebuffer(), v.format).digest())
    });
    out.attempted += 1;
    if !final_ok {
        out.failed += 1;
    }

    // In process, throughput is per second of timed ops.
    latency_metrics(
        "fanout_64",
        &mut out,
        &all,
        all.len() as f64 / (all.sum() / 1e3),
    );
    let n = all.len().max(1) as f64;
    out.e2e.insert("wire_bytes_per_op", wire_bytes as f64 / n);
    println!(
        "fanout_64: {} clicks; final digests match: {final_ok}",
        ops - WARMUP
    );

    if s.trace {
        let t_ops = traced.len().max(1) as f64;
        let l = &mut out.layers;
        spans.report(l, t_ops);
        l.insert("server.rects_per_op", rects as f64 / n);
        l.insert("server.payload_bytes_per_op", payload as f64 / n);
        l.insert(
            "server.bytes_per_pixel",
            payload as f64 / enc.pixels().max(1) as f64,
        );
        l.insert("proxy.rects_decoded_per_op", decoded as f64 / n);
        l.insert("protocol.frames_per_op", frames as f64 / n);
        enc.report(l, n);
        l.insert("trace.overhead_us", overhead_us(&[(&traced, &untraced)]));
        let rows = layer_rows(
            l,
            &[
                "server.handle_message_us",
                "wsys.render_us",
                "apps.process_us",
                "server.pump_us",
                "protocol.encode_server_us",
                "protocol.decode_body_us",
                "proxy.handle_server_us",
            ],
        );
        print_layer_table("fanout_64", l, &rows, traced.mean() * 1e3);
    }
    out
}
