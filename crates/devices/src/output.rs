//! Output plug-ins: adapt server bitmaps to each display device.

use uniint_core::plugin::{DeviceFrame, OutputCaps, OutputPlugin};
use uniint_raster::color::{first_difference, last_difference, Color};
use uniint_raster::dither::{dither_to_format, DitherMode, Reducer};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::region::{Region, RunBands};
use uniint_raster::scale::{fit_size, scale_to_fit, ScaleFilter, ScaleTaps};

/// A generic screen plug-in: aspect-fit scale, then depth reduction with
/// dithering, parameterized by the device's [`OutputCaps`]. Reports the
/// region that changed since the previous frame, so partial-refresh
/// device links only ship deltas.
///
/// Adaptation costs in proportion to what changed. Between calls the
/// plug-in retains the last source pixels, the reduced frame, and the
/// per-axis scaling tap tables for the current source and device sizes;
/// for Floyd–Steinberg also the scaled (pre-dither) frame and the
/// incoming error row of every output row. The device palette is built
/// once with the plug-in. Each call row-compares the new source with the
/// retained one, maps the changed rows through the tap tables to the
/// device rectangles their filter footprint touches, and re-scales and
/// re-reduces only those. Floyd–Steinberg restarts at the first dirty row
/// from its cached error row and stops below the last dirty row as soon
/// as the error passed down matches the cached one. The first call, and
/// any call with a new source size, is the same pass with every row
/// dirty.
///
/// The returned frame is exactly what a freshly built plug-in returns
/// for the same source.
#[derive(Debug, Clone)]
pub struct ScreenPlugin {
    kind: &'static str,
    caps: OutputCaps,
    reducer: Reducer,
    retained: Option<Retained>,
}

/// What a [`ScreenPlugin`] keeps from one call to the next.
#[derive(Debug, Clone)]
struct Retained {
    /// The last source frame's pixels, row-major.
    source: Vec<Color>,
    /// Tap tables from the source size to the device frame size.
    taps: ScaleTaps,
    /// Floyd–Steinberg only: the scaled, not yet reduced, device frame.
    /// Error diffusion re-reduces whole rows, including pixels outside
    /// the recomputed rectangles; other modes reduce each pixel as it is
    /// scaled and need no copy.
    scaled: Vec<Color>,
    /// The reduced device frame: what the last call returned.
    reduced: Vec<Color>,
    /// Floyd–Steinberg only: the incoming error row of every output row,
    /// `width + 2` entries each.
    errors: Vec<[i32; 3]>,
}

impl Retained {
    /// State for a new source size, with every pixel still to compute.
    /// The reduced frame of `old` is kept, to diff against, when the
    /// device size is unchanged.
    fn fresh(
        src: &Framebuffer,
        size: Size,
        filter: ScaleFilter,
        diffuses: bool,
        old: Option<Retained>,
    ) -> Retained {
        let n = size.area() as usize;
        let reduced = match old {
            Some(old) if old.taps.dst() == size => old.reduced,
            _ => vec![Color::BLACK; n],
        };
        let (scaled, errors) = if diffuses {
            let rows = (size.w as usize + 2) * size.h as usize;
            (vec![Color::BLACK; n], vec![[0; 3]; rows])
        } else {
            (Vec::new(), Vec::new())
        };
        Retained {
            source: src.pixels().to_vec(),
            taps: ScaleTaps::new(src.size(), size, filter),
            scaled,
            reduced,
            errors,
        }
    }

    /// Updates the retained source to `src` (same size) and returns its
    /// dirty bands: runs of changed rows, each spanning the columns that
    /// changed on any of them.
    fn take_source_changes(&mut self, src: &Framebuffer) -> Vec<Rect> {
        let w = src.width() as usize;
        let mut bands: Vec<Rect> = Vec::new();
        let rows = self
            .source
            .chunks_exact_mut(w)
            .zip(src.pixels().chunks_exact(w));
        for (y, (old, new)) in rows.enumerate() {
            let Some(x0) = first_difference(old, new) else {
                continue;
            };
            let x1 = last_difference(old, new).expect("rows differ");
            old[x0..x1].copy_from_slice(&new[x0..x1]);
            let row = Rect::new(x0 as i32, y as i32, (x1 - x0) as u32, 1);
            match bands.last_mut() {
                Some(band) if band.bottom() == y as i32 => *band = band.union(row),
                _ => bands.push(row),
            }
        }
        bands
    }

    /// Recomputes the device pixels that read any of the source `bands`
    /// from `src`. Returns where the reduced frame changed when `diff`
    /// is set.
    fn readapt(
        &mut self,
        src: &Framebuffer,
        bands: &[Rect],
        reducer: &Reducer,
        diff: bool,
    ) -> Option<Region> {
        // Device rectangles to recompute, merged so their row ranges are
        // disjoint. Taps are monotone, so footprints come out sorted.
        let mut rects: Vec<Rect> = Vec::new();
        for r in bands.iter().filter_map(|b| self.taps.footprint(*b)) {
            match rects.last_mut() {
                Some(last) if r.y < last.bottom() => *last = last.union(r),
                _ => rects.push(r),
            }
        }
        let size = self.taps.dst();
        let (w, h) = (size.w as usize, size.h as usize);
        let diffuses = reducer.diffuses();
        if diffuses {
            for r in &rects {
                for y in r.y as usize..r.bottom() as usize {
                    let span = &mut self.scaled[y * w..][r.x as usize..r.right() as usize];
                    self.taps.scale_row(src, y as u32, r.x as u32, span);
                }
            }
        }

        let stride = w + 2;
        let mut changed = RunBands::new();
        let mut scaled_row = vec![Color::BLACK; w];
        let mut row = vec![Color::BLACK; w];
        let mut err = vec![[0i32; 3]; stride];
        let mut next = vec![[0i32; 3]; stride];
        let mut pending = rects.iter().peekable();
        let mut y = rects.first().map_or(h, |r| r.y as usize);
        if diffuses && y < h {
            err.copy_from_slice(&self.errors[y * stride..][..stride]);
        }
        while y < h {
            while pending.next_if(|r| r.bottom() as usize <= y).is_some() {}
            let rect = pending.peek().filter(|r| r.y as usize <= y).copied();
            // Outside the rectangles the scaled rows are unchanged, so the
            // output is too — once error diffusion passes down the same
            // error it did last time. Skip to the next rectangle.
            if rect.is_none() && (!diffuses || self.errors[y * stride..][..stride] == err[..]) {
                let Some(r) = pending.peek() else {
                    break;
                };
                y = r.y as usize;
                if diffuses {
                    err.copy_from_slice(&self.errors[y * stride..][..stride]);
                }
                continue;
            }
            let (x0, x1) = if diffuses {
                self.errors[y * stride..][..stride].copy_from_slice(&err);
                let scaled = &self.scaled[y * w..][..w];
                reducer.reduce_row(scaled, y, &mut err, &mut next, &mut row);
                core::mem::swap(&mut err, &mut next);
                (0, w)
            } else {
                let r = rect.expect("inside a rectangle");
                let (x0, x1) = (r.x as usize, r.right() as usize);
                let scaled = &mut scaled_row[x0..x1];
                self.taps.scale_row(src, y as u32, x0 as u32, scaled);
                reducer.reduce_span(scaled, x0, y, &mut row[x0..x1]);
                (x0, x1)
            };
            let old = &mut self.reduced[y * w..][x0..x1];
            if diff {
                changed.push_diff(y as u32, x0 as u32, old, &row[x0..x1]);
            }
            old.copy_from_slice(&row[x0..x1]);
            y += 1;
        }
        diff.then(|| changed.finish())
    }
}

impl ScreenPlugin {
    /// Creates a screen plug-in with explicit capabilities.
    pub fn new(kind: &'static str, caps: OutputCaps) -> ScreenPlugin {
        ScreenPlugin {
            kind,
            caps,
            reducer: Reducer::for_format(caps.format, caps.dither),
            retained: None,
        }
    }

    /// A 2002-era PDA: QVGA portrait, 12-bit color, box downscale with
    /// ordered dithering.
    pub fn pda() -> ScreenPlugin {
        ScreenPlugin::new(
            "pda-screen",
            OutputCaps {
                size: Size::new(240, 320),
                format: PixelFormat::Rgb444,
                dither: DitherMode::Ordered4x4,
                scale: ScaleFilter::Box,
            },
        )
    }

    /// A cellular-phone LCD: 128×128, 1-bit, error-diffusion dithering so
    /// panels stay legible.
    pub fn phone_lcd() -> ScreenPlugin {
        ScreenPlugin::new(
            "phone-lcd",
            OutputCaps {
                size: Size::new(128, 128),
                format: PixelFormat::Mono1,
                dither: DitherMode::FloydSteinberg,
                scale: ScaleFilter::Box,
            },
        )
    }

    /// A television used as the output surface: VGA, full color, bilinear.
    pub fn tv() -> ScreenPlugin {
        ScreenPlugin::new(
            "tv-screen",
            OutputCaps {
                size: Size::new(640, 480),
                format: PixelFormat::Rgb888,
                dither: DitherMode::None,
                scale: ScaleFilter::Bilinear,
            },
        )
    }

    /// A grayscale wearable eyepiece.
    pub fn eyepiece() -> ScreenPlugin {
        ScreenPlugin::new(
            "eyepiece",
            OutputCaps {
                size: Size::new(160, 120),
                format: PixelFormat::Gray4,
                dither: DitherMode::Ordered4x4,
                scale: ScaleFilter::Box,
            },
        )
    }
}

impl OutputPlugin for ScreenPlugin {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn caps(&self) -> OutputCaps {
        self.caps
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let size = fit_size(server_frame.size(), self.caps.size);
        // Taken out for the call and put back only on success, so a panic
        // part-way leaves the plug-in fresh.
        let (mut state, bands, diff) = match self.retained.take() {
            Some(mut state) if state.taps.src() == server_frame.size() => {
                let bands = state.take_source_changes(server_frame);
                (state, bands, true)
            }
            old => {
                let diff = old.as_ref().is_some_and(|old| old.taps.dst() == size);
                let diffuses = self.reducer.diffuses();
                let state = Retained::fresh(server_frame, size, self.caps.scale, diffuses, old);
                (state, vec![server_frame.bounds()], diff)
            }
        };
        let changed = state.readapt(server_frame, &bands, &self.reducer, diff);
        let frame = Framebuffer::from_pixels(size, state.reduced.clone());
        self.retained = Some(state);
        let wire_bytes = self.caps.format.buffer_bytes(size.w, size.h);
        let out = DeviceFrame::new(frame, self.caps.format, wire_bytes);
        match changed {
            Some(changed) => out.with_changed(changed),
            None => out,
        }
    }
}

/// Character ramp from dark to light used by [`ascii_art`].
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders a framebuffer as ASCII art, one character per pixel. Used by
/// the terminal output device and handy for debugging panels in tests.
pub fn ascii_art(fb: &Framebuffer) -> String {
    let mut out = String::with_capacity((fb.width() as usize + 1) * fb.height() as usize);
    for y in 0..fb.height() {
        for &px in fb.row(y) {
            let idx = px.luma() as usize * (RAMP.len() - 1) / 255;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// A text terminal as an output device: the frame is downscaled to one
/// pixel per character cell and rendered with [`ascii_art`].
#[derive(Debug, Clone)]
pub struct TerminalPlugin {
    cols: u32,
    rows: u32,
}

impl TerminalPlugin {
    /// Creates a terminal plug-in; defaults are 80×24.
    pub fn new(cols: u32, rows: u32) -> TerminalPlugin {
        TerminalPlugin {
            cols: cols.max(2),
            rows: rows.max(2),
        }
    }

    /// The classic 80×24 terminal.
    pub fn standard() -> TerminalPlugin {
        TerminalPlugin::new(80, 24)
    }

    /// Renders the adapted frame to text.
    pub fn render_text(&self, frame: &DeviceFrame) -> String {
        ascii_art(&frame.frame)
    }
}

impl OutputPlugin for TerminalPlugin {
    fn kind(&self) -> &'static str {
        "terminal"
    }

    fn caps(&self) -> OutputCaps {
        OutputCaps {
            size: Size::new(self.cols, self.rows),
            format: PixelFormat::Gray8,
            dither: DitherMode::None,
            scale: ScaleFilter::Box,
        }
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        // Characters are ~2x taller than wide; compensate by halving rows
        // during the fit so shapes stay recognizable.
        let scaled = scale_to_fit(
            server_frame,
            Size::new(self.cols, self.rows),
            ScaleFilter::Box,
        );
        let gray = dither_to_format(&scaled, PixelFormat::Gray8, DitherMode::None);
        // One byte per character over the wire.
        let wire_bytes = (gray.width() * gray.height()) as usize;
        DeviceFrame::new(gray, PixelFormat::Gray8, wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_raster::color::Color;
    use uniint_raster::geom::{Point, Rect};

    fn server_frame() -> Framebuffer {
        let mut fb = Framebuffer::new(320, 240, Color::LIGHT_GRAY);
        fb.fill_rect(Rect::new(20, 20, 100, 60), Color::BLUE);
        fb.fill_rect(Rect::new(200, 100, 80, 80), Color::BLACK);
        fb
    }

    #[test]
    fn pda_adapt_dimensions_and_depth() {
        let mut p = ScreenPlugin::pda();
        let out = p.adapt(&server_frame());
        // 320x240 fit into 240x320 → 240x180.
        assert_eq!(out.frame.size(), Size::new(240, 180));
        assert_eq!(out.format, PixelFormat::Rgb444);
        for &px in out.frame.pixels() {
            assert_eq!(PixelFormat::Rgb444.reduce(px), px);
        }
        assert_eq!(out.wire_bytes, PixelFormat::Rgb444.buffer_bytes(240, 180));
    }

    #[test]
    fn phone_lcd_is_monochrome() {
        let mut p = ScreenPlugin::phone_lcd();
        let out = p.adapt(&server_frame());
        assert!(out.frame.width() <= 128 && out.frame.height() <= 128);
        for &px in out.frame.pixels() {
            assert!(px == Color::BLACK || px == Color::WHITE);
        }
    }

    #[test]
    fn tv_keeps_colors() {
        let mut p = ScreenPlugin::tv();
        let out = p.adapt(&server_frame());
        assert_eq!(out.format, PixelFormat::Rgb888);
        assert_eq!(out.frame.size(), Size::new(640, 480));
    }

    #[test]
    fn wire_bytes_ordering_matches_device_class() {
        let frame = server_frame();
        let tv = ScreenPlugin::tv().adapt(&frame).wire_bytes;
        let pda = ScreenPlugin::pda().adapt(&frame).wire_bytes;
        let phone = ScreenPlugin::phone_lcd().adapt(&frame).wire_bytes;
        assert!(tv > pda, "tv {tv} vs pda {pda}");
        assert!(pda > phone, "pda {pda} vs phone {phone}");
    }

    #[test]
    fn ascii_art_shape() {
        let mut fb = Framebuffer::new(4, 2, Color::BLACK);
        fb.set_pixel(Point::new(0, 0), Color::WHITE);
        let art = ascii_art(&fb);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 4);
        assert_eq!(&art[0..1], "@");
        assert_eq!(&lines[1][0..1], " ");
    }

    #[test]
    fn terminal_renders_text() {
        let mut p = TerminalPlugin::standard();
        let out = p.adapt(&server_frame());
        let text = p.render_text(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() <= 24);
        assert!(lines[0].len() <= 80);
        // Dark square must show as dark characters somewhere.
        assert!(text.contains(' '));
    }

    #[test]
    fn terminal_minimum_size_clamped() {
        let p = TerminalPlugin::new(0, 0);
        assert_eq!(p.caps().size, Size::new(2, 2));
    }

    #[test]
    fn adapt_is_deterministic() {
        let frame = server_frame();
        let a = ScreenPlugin::phone_lcd().adapt(&frame);
        let b = ScreenPlugin::phone_lcd().adapt(&frame);
        assert_eq!(a.frame, b.frame);
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use uniint_raster::color::Color;
    use uniint_raster::geom::Rect;

    #[test]
    fn first_frame_is_fully_changed() {
        let mut p = ScreenPlugin::tv();
        let fb = Framebuffer::new(320, 240, Color::GRAY);
        let out = p.adapt(&fb);
        assert_eq!(out.changed.area(), out.frame.size().area());
        assert_eq!(out.delta_bytes(), out.wire_bytes);
    }

    #[test]
    fn unchanged_frame_has_empty_delta() {
        let mut p = ScreenPlugin::tv();
        let fb = Framebuffer::new(320, 240, Color::GRAY);
        p.adapt(&fb);
        let out = p.adapt(&fb);
        assert!(out.changed.is_empty());
        assert_eq!(out.delta_bytes(), 0);
        assert!(out.wire_bytes > 0, "full-frame accounting unchanged");
    }

    #[test]
    fn small_change_yields_small_delta() {
        let mut p = ScreenPlugin::tv();
        let mut fb = Framebuffer::new(640, 480, Color::GRAY);
        p.adapt(&fb);
        fb.fill_rect(Rect::new(10, 10, 40, 12), Color::BLACK);
        let out = p.adapt(&fb);
        assert!(!out.changed.is_empty());
        assert!(
            out.delta_bytes() < out.wire_bytes / 10,
            "delta {} much smaller than full {}",
            out.delta_bytes(),
            out.wire_bytes
        );
    }

    #[test]
    fn resize_falls_back_to_full_change() {
        let mut p = ScreenPlugin::tv();
        p.adapt(&Framebuffer::new(320, 240, Color::GRAY));
        // Different server aspect → different device frame size → full.
        let out = p.adapt(&Framebuffer::new(100, 300, Color::GRAY));
        assert_eq!(out.changed.area(), out.frame.size().area());
    }
}
