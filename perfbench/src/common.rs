//! Shared pieces: seeded generator, sample statistics, bench-side spans,
//! timing plug-in wrappers, metric tables and process statistics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uniint_core::plugin::{DeviceEvent, DeviceFrame, InputContext, InputPlugin};
use uniint_core::plugin::{OutputCaps, OutputPlugin};
use uniint_protocol::encoding::Encoding;
use uniint_protocol::error::ProtocolError;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{encode_server, FrameReader, ServerMessage};
use uniint_raster::color::Color;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

/// End-to-end metrics every run prints, with their units.
pub const REPORTED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("wire_bytes_per_op", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics a `--trace 0` run reports in its JSON line: the
/// ones that stay steady between runs of the same code on a shared
/// two-core host. On `gateway_2c`, host CPU steal turns into stalled
/// thread hand-offs, which moved p90, `ops_per_s` and `peak_rss_mb`
/// (client log growth follows the op count) by more than a quarter
/// between runs; p99 moved by a third even on `device_loop`. Those are
/// printed, not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("wire_bytes_per_op", "bytes"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload does not run reads 0. Times are bench-side self times in
/// microseconds per op (mean over traced ops).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("devices.adapt_us.phone", "us"),
    ("devices.adapt_us.pda", "us"),
    ("devices.adapt_us.tv", "us"),
    ("devices.adapt_useful_ratio", "ratio"),
    ("devices.translate_us", "us"),
    ("server.pump_us", "us"),
    ("server.handle_message_us", "us"),
    ("server.rects_per_op", "count"),
    ("server.pixels_per_op", "count"),
    ("server.payload_bytes_per_op", "bytes"),
    ("server.bytes_per_pixel", "bytes"),
    ("server.encoding_share.raw", "ratio"),
    ("server.encoding_share.copyrect", "ratio"),
    ("server.encoding_share.rre", "ratio"),
    ("server.encoding_share.hextile", "ratio"),
    ("server.encoding_share.rle", "ratio"),
    ("server.encoding_share.prle", "ratio"),
    ("server.encode_unique_ratio", "ratio"),
    ("proxy.handle_server_us", "us"),
    ("proxy.device_input_us", "us"),
    ("proxy.rects_decoded_per_op", "count"),
    ("proxy.stalls", "count"),
    ("proxy.resumes", "count"),
    ("protocol.encode_server_us", "us"),
    ("protocol.decode_body_us", "us"),
    ("protocol.frames_per_op", "count"),
    ("gateway.client_send_us", "us"),
    ("gateway.client_pump_us", "us"),
    ("gateway.server_side_us", "us"),
    ("gateway.frames_in_per_op", "count"),
    ("gateway.bytes_out_per_op", "bytes"),
    ("gateway.write_coalesced_per_op", "count"),
    ("gateway.queue_depth_max", "count"),
    ("gateway.dropped_connections", "count"),
    ("wsys.render_us", "us"),
    ("apps.process_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.overhead_us", "us"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations: ops, output switches and final-frame checks.
    pub attempted: u64,
    /// Operations whose output check failed, timed out or errored.
    pub failed: u64,
    /// End-to-end values by metric name (all but `peak_rss_mb`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by metric name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run settings shared by all workloads.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed; the only source of generated inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed only.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean, or 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile `p` in `0..=1`, or 0 without samples.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }
}

/// Inserts `latency_ms_p50`, `latency_ms_p90` and `ops_per_s`, and
/// prints them with p99 and the sample count.
pub fn latency_metrics(workload: &str, out: &mut Outcome, all: &Samples, ops_per_s: f64) {
    out.e2e.insert("latency_ms_p50", all.pct(0.50));
    out.e2e.insert("latency_ms_p90", all.pct(0.90));
    out.e2e.insert("ops_per_s", ops_per_s);
    println!(
        "{workload}: op latency p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms (n={}); {ops_per_s:.1} ops/s",
        all.pct(0.50),
        all.pct(0.90),
        all.pct(0.99),
        all.len()
    );
}

/// Median of a few durations, in seconds.
pub fn median_s(mut v: Vec<Duration>) -> f64 {
    v.sort();
    v[v.len() / 2].as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bench-side spans: accumulated nanoseconds per layer name, recorded
/// only while `on` (for the ops a traced run picks).
#[derive(Debug, Default)]
pub struct Spans {
    /// Whether spans are recorded now.
    pub on: bool,
    acc: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Starts a span when recording.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Ends a span started by [`start`](Self::start), minus `child_ns`
    /// spent in nested spans recorded elsewhere.
    pub fn stop(&mut self, name: &'static str, t: Option<Instant>, child_ns: u64) {
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            *self.acc.entry(name).or_default() += ns.saturating_sub(child_ns);
        }
    }

    /// Writes every layer's mean microseconds over `ops` ops into `layers`.
    pub fn report(&self, layers: &mut BTreeMap<&'static str, f64>, ops: f64) {
        for (&name, &ns) in &self.acc {
            layers.insert(name, ns as f64 / 1e3 / ops);
        }
    }
}

/// Shared counters the timing plug-in wrappers record into.
#[derive(Debug, Default)]
pub struct Probe {
    /// Whether adapt/translate calls are timed now.
    pub on: AtomicBool,
    /// Nanoseconds inside `OutputPlugin::adapt` (while `on`).
    pub adapt_ns: AtomicU64,
    /// Nanoseconds inside `InputPlugin::translate` (while `on`).
    pub translate_ns: AtomicU64,
    /// Server pixels handed to `adapt`.
    pub adapt_px: AtomicU64,
    /// `adapt` calls.
    pub adapt_calls: AtomicU64,
}

impl Probe {
    /// Sets whether calls are timed.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds inside `adapt` so far.
    pub fn adapt_ns(&self) -> u64 {
        self.adapt_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds inside `translate` so far.
    pub fn translate_ns(&self) -> u64 {
        self.translate_ns.load(Ordering::Relaxed)
    }

    fn timed<R>(&self, slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

/// An output plug-in wrapped so its `adapt` calls are counted and timed.
#[derive(Debug)]
pub struct TimedOutput {
    inner: Box<dyn OutputPlugin>,
    probe: Arc<Probe>,
}

impl TimedOutput {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn OutputPlugin>, probe: Arc<Probe>) -> TimedOutput {
        TimedOutput { inner, probe }
    }
}

impl OutputPlugin for TimedOutput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn caps(&self) -> OutputCaps {
        self.inner.caps()
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        self.probe
            .adapt_px
            .fetch_add(server_frame.size().area(), Ordering::Relaxed);
        self.probe.adapt_calls.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.probe
            .timed(&self.probe.adapt_ns, || inner.adapt(server_frame))
    }
}

/// An input plug-in wrapped so its `translate` calls are timed.
#[derive(Debug)]
pub struct TimedInput {
    inner: Box<dyn InputPlugin>,
    probe: Arc<Probe>,
}

impl TimedInput {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn InputPlugin>, probe: Arc<Probe>) -> TimedInput {
        TimedInput { inner, probe }
    }
}

impl InputPlugin for TimedInput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent> {
        let inner = &mut self.inner;
        self.probe
            .timed(&self.probe.translate_ns, || inner.translate(ev, ctx))
    }
}

/// The server framebuffer reduced to `fmt`: what a proxy receiving that
/// format must show.
pub fn reduced(server: &Framebuffer, fmt: PixelFormat) -> Framebuffer {
    let mut fb = Framebuffer::new(server.width(), server.height(), Color::BLACK);
    let px: Vec<_> = server.pixels().iter().map(|&c| fmt.reduce(c)).collect();
    fb.write_rect(fb.bounds(), &px);
    fb
}

/// What the server-to-proxy messages of one op amounted to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Codec bytes, length prefixes included.
    pub wire_bytes: u64,
    /// Messages framed.
    pub frames: u64,
    /// Messages that failed to decode or apply.
    pub errors: u64,
    /// When the first adapted device frame came out of the proxy.
    pub frame_arrived: Option<Instant>,
}

/// Passes one server message through the wire codec, as a socket would:
/// `encode_server`, frame reassembly, `ServerMessage::decode_body`.
pub fn through_codec(
    reader: &mut FrameReader,
    m: &ServerMessage,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<ServerMessage, ProtocolError> {
    let t = spans.start();
    let bytes = encode_server(m);
    spans.stop("protocol.encode_server_us", t, 0);
    tally.wire_bytes += bytes.len() as u64;
    tally.frames += 1;
    let t = spans.start();
    reader.feed(&bytes);
    let decoded = match reader.next_frame() {
        Ok(Some(body)) => ServerMessage::decode_body(&mut body.as_slice()),
        Ok(None) => Err(ProtocolError::Malformed("partial frame".into())),
        Err(e) => Err(e),
    };
    spans.stop("protocol.decode_body_us", t, 0);
    decoded
}

/// The centre of `r`.
pub fn centre(r: Rect) -> (u16, u16) {
    ((r.x + r.w as i32 / 2) as u16, (r.y + r.h as i32 / 2) as u16)
}

/// Encode-side tallies over server updates: rects, pixels, encodings and
/// how many of the (rect, format) encodes in one pump were distinct.
#[derive(Debug, Default)]
pub struct EncodeTally {
    rects: u64,
    pixels: u64,
    by_encoding: [u64; 6],
    distinct: u64,
}

impl EncodeTally {
    /// Counts every update among the messages one pump produced.
    pub fn pump<'a>(&mut self, batch: impl IntoIterator<Item = &'a ServerMessage>) {
        let mut seen: Vec<(Rect, PixelFormat)> = Vec::new();
        for m in batch {
            if let ServerMessage::Update { format, rects, .. } = m {
                for r in rects {
                    self.rects += 1;
                    self.pixels += r.rect.area();
                    let i = Encoding::ALL
                        .iter()
                        .position(|e| *e == r.encoding)
                        .expect("every encoding is listed");
                    self.by_encoding[i] += 1;
                    if !seen.contains(&(r.rect, *format)) {
                        seen.push((r.rect, *format));
                    }
                }
            }
        }
        self.distinct += seen.len() as u64;
    }

    /// Pixels counted so far.
    pub fn pixels(&self) -> u64 {
        self.pixels
    }

    /// Writes the encode-side per-layer metrics for `ops` ops.
    pub fn report(&self, layers: &mut BTreeMap<&'static str, f64>, ops: f64) {
        const NAMES: [&str; 6] = [
            "server.encoding_share.raw",
            "server.encoding_share.copyrect",
            "server.encoding_share.rre",
            "server.encoding_share.hextile",
            "server.encoding_share.rle",
            "server.encoding_share.prle",
        ];
        let rects = self.rects.max(1) as f64;
        for (name, n) in NAMES.iter().zip(self.by_encoding) {
            layers.insert(name, n as f64 / rects);
        }
        layers.insert("server.pixels_per_op", self.pixels as f64 / ops);
        layers.insert("server.encode_unique_ratio", self.distinct as f64 / rects);
    }
}

/// `(name, value)` rows of `layers` for a self-time table.
pub fn layer_rows(
    layers: &BTreeMap<&'static str, f64>,
    names: &[&'static str],
) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|&n| (n, layers.get(n).copied().unwrap_or(0.0)))
        .collect()
}

/// Prints a per-layer self-time table whose rows plus a residual add up
/// to the traced mean op latency `op_us`, and records the residual.
pub fn print_layer_table(
    workload: &str,
    layers: &mut BTreeMap<&'static str, f64>,
    rows: &[(&'static str, f64)],
    op_us: f64,
) {
    println!("per-layer self time, {workload} (traced ops, mean us/op):");
    let share = |us: f64| 100.0 * us / op_us.max(1e-9);
    for &(name, us) in rows {
        println!("  {name:<32} {us:>10.1} us  {:>5.1}%", share(us));
    }
    let residual = op_us - rows.iter().map(|r| r.1).sum::<f64>();
    layers.insert("trace.residual_us", residual);
    println!(
        "  {:<32} {residual:>10.1} us  {:>5.1}%",
        "residual (bench loop)",
        share(residual)
    );
    println!("  {:<32} {op_us:>10.1} us", "= traced op latency");
    println!(
        "  tracing overhead {:.1} us/op (traced minus untraced mean op latency)",
        layers.get("trace.overhead_us").copied().unwrap_or(0.0)
    );
}

/// Mean traced minus mean untraced op latency in microseconds, over
/// `(traced, untraced)` pairs of op classes weighted by traced op count.
pub fn overhead_us(pairs: &[(&Samples, &Samples)]) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (t, u) in pairs {
        if t.len() > 0 && u.len() > 0 {
            num += (t.mean() - u.mean()) * 1e3 * t.len() as f64;
            den += t.len() as f64;
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
