//! Image scaling: the UniInt proxy rescales server frames to each output
//! device's native resolution (TV overscan, QVGA PDA, 128×128 phone LCD...).

use crate::color::Color;
use crate::framebuffer::Framebuffer;
use crate::geom::{Rect, Size};
use serde::{Deserialize, Serialize};

/// Scaling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScaleFilter {
    /// Nearest-neighbor: fastest, blockiest. What a 2002 PDA viewer did.
    #[default]
    Nearest,
    /// Bilinear interpolation: smoother, ~4 taps per output pixel.
    Bilinear,
    /// Box filter (area average): best for large downscales such as
    /// 640×480 → 128×128 phone LCDs.
    Box,
}

impl core::fmt::Display for ScaleFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ScaleFilter::Nearest => "nearest",
            ScaleFilter::Bilinear => "bilinear",
            ScaleFilter::Box => "box",
        };
        f.write_str(s)
    }
}

/// Scales `src` to exactly `target` using `filter`.
///
/// Returns a clone when the size already matches.
///
/// # Panics
///
/// Panics if `target` is empty.
pub fn scale(src: &Framebuffer, target: Size, filter: ScaleFilter) -> Framebuffer {
    assert!(!target.is_empty(), "scale target must be non-empty");
    if src.size() == target {
        return src.clone();
    }
    let taps = ScaleTaps::new(src.size(), target, filter);
    let mut out = vec![Color::BLACK; target.area() as usize];
    for (y, row) in out.chunks_exact_mut(target.w as usize).enumerate() {
        taps.scale_row(src, y as u32, 0, row);
    }
    Framebuffer::from_pixels(target, out)
}

/// The size of a `src`-sized image after an aspect-preserving fit into
/// `bounds`; at least 1×1 and never larger than `bounds`.
///
/// # Panics
///
/// Panics if `bounds` is empty.
pub fn fit_size(src: Size, bounds: Size) -> Size {
    assert!(!bounds.is_empty(), "scale bounds must be non-empty");
    let sx = bounds.w as f64 / src.w as f64;
    let sy = bounds.h as f64 / src.h as f64;
    let s = sx.min(sy);
    let w = ((src.w as f64 * s).round() as u32).clamp(1, bounds.w);
    let h = ((src.h as f64 * s).round() as u32).clamp(1, bounds.h);
    Size::new(w, h)
}

/// Scales `src` to fit within `bounds` preserving aspect ratio; result is
/// at least 1×1.
pub fn scale_to_fit(src: &Framebuffer, bounds: Size, filter: ScaleFilter) -> Framebuffer {
    scale(src, fit_size(src.size(), bounds), filter)
}

/// The source pixels one output row or column reads: the inclusive span
/// `first..=last`, and for bilinear the weight of `last` in 1/256ths.
#[derive(Debug, Clone, Copy)]
struct Tap {
    first: u32,
    last: u32,
    t: u32,
}

impl Tap {
    fn nearest(i: u32, src: u32, dst: u32) -> Tap {
        let s = (i as u64 * src as u64 / dst as u64) as u32;
        Tap {
            first: s,
            last: s,
            t: 0,
        }
    }

    fn bilinear(i: u32, src: u32, dst: u32) -> Tap {
        // Map pixel centers.
        let f = ((i as f64 + 0.5) * src as f64 / dst as f64 - 0.5).max(0.0);
        let first = f.floor() as u32;
        Tap {
            first,
            last: (first + 1).min(src - 1),
            t: ((f - first as f64) * 256.0) as u32,
        }
    }

    fn area(i: u32, src: u32, dst: u32) -> Tap {
        let first = (i as u64 * src as u64 / dst as u64) as u32;
        let end = ((i as u64 + 1) * src as u64 / dst as u64) as u32;
        Tap {
            first,
            last: end.max(first + 1) - 1,
            t: 0,
        }
    }
}

/// Per-axis tap tables for scaling a `src`-sized frame to `dst` with one
/// filter: the single implementation behind [`scale`], usable on any span
/// of the output so callers can re-scale only what changed.
#[derive(Debug, Clone)]
pub struct ScaleTaps {
    filter: ScaleFilter,
    src: Size,
    dst: Size,
    xs: Vec<Tap>,
    ys: Vec<Tap>,
}

impl ScaleTaps {
    /// Builds the tables for `src` → `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either size is empty.
    pub fn new(src: Size, dst: Size, filter: ScaleFilter) -> ScaleTaps {
        assert!(
            !src.is_empty() && !dst.is_empty(),
            "scale sizes must be non-empty"
        );
        let tap = match filter {
            ScaleFilter::Nearest => Tap::nearest,
            ScaleFilter::Bilinear => Tap::bilinear,
            ScaleFilter::Box => Tap::area,
        };
        ScaleTaps {
            filter,
            src,
            dst,
            xs: (0..dst.w).map(|x| tap(x, src.w, dst.w)).collect(),
            ys: (0..dst.h).map(|y| tap(y, src.h, dst.h)).collect(),
        }
    }

    /// The source size.
    pub fn src(&self) -> Size {
        self.src
    }

    /// The output size.
    pub fn dst(&self) -> Size {
        self.dst
    }

    /// The output rectangle whose pixels read any source pixel of
    /// `src_rect`, or `None` when no output pixel does (a sparse
    /// downscale skips some source rows and columns).
    pub fn footprint(&self, src_rect: Rect) -> Option<Rect> {
        let src_rect = src_rect.intersect(Rect::new(0, 0, self.src.w, self.src.h))?;
        let (x0, x1) = touching(&self.xs, src_rect.x as u32, src_rect.right() as u32)?;
        let (y0, y1) = touching(&self.ys, src_rect.y as u32, src_rect.bottom() as u32)?;
        Some(Rect::new(x0 as i32, y0 as i32, x1 - x0, y1 - y0))
    }

    /// Writes the scaled pixels of output row `y`, from column `x0`
    /// on, into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not have the size the tables were built for,
    /// or the span leaves the output.
    pub fn scale_row(&self, src: &Framebuffer, y: u32, x0: u32, out: &mut [Color]) {
        assert_eq!(src.size(), self.src, "source size differs from taps");
        let x0 = x0 as usize;
        let xs = &self.xs[x0..x0 + out.len()];
        let ty = self.ys[y as usize];
        if self.src == self.dst {
            // Every filter reproduces its input at 1:1.
            out.copy_from_slice(&src.row(y)[x0..x0 + out.len()]);
            return;
        }
        match self.filter {
            ScaleFilter::Nearest => {
                let row = src.row(ty.first);
                for (o, tx) in out.iter_mut().zip(xs) {
                    *o = row[tx.first as usize];
                }
            }
            ScaleFilter::Bilinear => {
                let row0 = src.row(ty.first);
                let row1 = src.row(ty.last);
                for (o, tx) in out.iter_mut().zip(xs) {
                    let (a, b) = (tx.first as usize, tx.last as usize);
                    let top = row0[a].lerp(row0[b], tx.t);
                    let bot = row1[a].lerp(row1[b], tx.t);
                    *o = top.lerp(bot, ty.t);
                }
            }
            ScaleFilter::Box => {
                let rows = (ty.last - ty.first + 1) as u64;
                for (o, tx) in out.iter_mut().zip(xs) {
                    let (a, b) = (tx.first as usize, tx.last as usize + 1);
                    let (mut r, mut g, mut bl) = (0u64, 0u64, 0u64);
                    for sy in ty.first..=ty.last {
                        for c in &src.row(sy)[a..b] {
                            r += c.r as u64;
                            g += c.g as u64;
                            bl += c.b as u64;
                        }
                    }
                    let n = rows * (b - a) as u64;
                    *o = Color::rgb((r / n) as u8, (g / n) as u8, (bl / n) as u8);
                }
            }
        }
    }
}

/// The half-open range of output indices whose taps overlap source
/// indices `lo..hi`. Taps are monotone in the output index, so the
/// matching indices are contiguous.
fn touching(taps: &[Tap], lo: u32, hi: u32) -> Option<(u32, u32)> {
    let start = taps.partition_point(|t| t.last < lo);
    let end = taps.partition_point(|t| t.first < hi);
    (start < end).then_some((start as u32, end as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    fn checkerboard(w: u32, h: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h, Color::BLACK);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                if (x + y) % 2 == 0 {
                    fb.set_pixel(Point::new(x, y), Color::WHITE);
                }
            }
        }
        fb
    }

    #[test]
    fn identity_scale_is_clone() {
        let src = checkerboard(8, 8);
        for f in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            let out = scale(&src, Size::new(8, 8), f);
            assert_eq!(out, src);
        }
    }

    #[test]
    fn upscale_nearest_replicates() {
        let mut src = Framebuffer::new(2, 1, Color::BLACK);
        src.set_pixel(Point::new(1, 0), Color::WHITE);
        let out = scale(&src, Size::new(4, 2), ScaleFilter::Nearest);
        assert_eq!(out.pixel(Point::new(0, 0)), Some(Color::BLACK));
        assert_eq!(out.pixel(Point::new(1, 1)), Some(Color::BLACK));
        assert_eq!(out.pixel(Point::new(2, 0)), Some(Color::WHITE));
        assert_eq!(out.pixel(Point::new(3, 1)), Some(Color::WHITE));
    }

    #[test]
    fn downscale_box_averages() {
        let src = checkerboard(8, 8);
        let out = scale(&src, Size::new(1, 1), ScaleFilter::Box);
        let c = out.pixel(Point::new(0, 0)).unwrap();
        assert!(
            (120..=135).contains(&c.r),
            "average of checkerboard ~127, got {c}"
        );
    }

    #[test]
    fn bilinear_midpoint_blends() {
        let mut src = Framebuffer::new(2, 1, Color::BLACK);
        src.set_pixel(Point::new(1, 0), Color::WHITE);
        let out = scale(&src, Size::new(3, 1), ScaleFilter::Bilinear);
        let mid = out.pixel(Point::new(1, 0)).unwrap();
        assert!(mid.r > 0 && mid.r < 255, "midpoint should blend, got {mid}");
    }

    #[test]
    fn solid_color_survives_all_filters() {
        let mut src = Framebuffer::new(10, 10, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 10, 10), Color::rgb(40, 90, 200));
        for f in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            let out = scale(&src, Size::new(3, 7), f);
            for &p in out.pixels() {
                assert_eq!(p, Color::rgb(40, 90, 200), "{f}");
            }
        }
    }

    #[test]
    fn scale_to_fit_preserves_aspect() {
        let src = Framebuffer::new(100, 50, Color::BLACK);
        let out = scale_to_fit(&src, Size::new(20, 20), ScaleFilter::Nearest);
        assert_eq!(out.size(), Size::new(20, 10));
        let out2 = scale_to_fit(&src, Size::new(200, 20), ScaleFilter::Nearest);
        assert_eq!(out2.size(), Size::new(40, 20));
    }

    #[test]
    fn fit_size_is_the_size_scale_to_fit_produces() {
        const SIDES: [u32; 7] = [1, 2, 3, 7, 16, 45, 90];
        let sizes = || {
            SIDES
                .iter()
                .flat_map(|&w| SIDES.iter().map(move |&h| Size::new(w, h)))
        };
        for (src, bounds) in sizes().flat_map(|s| sizes().map(move |b| (s, b))) {
            let (sw, sh) = (src.w, src.h);
            let fb = Framebuffer::new(sw, sh, Color::BLACK);
            for f in [
                ScaleFilter::Nearest,
                ScaleFilter::Bilinear,
                ScaleFilter::Box,
            ] {
                assert_eq!(
                    fit_size(src, bounds),
                    scale_to_fit(&fb, bounds, f).size(),
                    "{src} into {bounds} ({f})"
                );
            }
        }
    }

    #[test]
    fn footprint_covers_every_output_pixel_that_reads_the_source_rect() {
        // Change one source pixel at a time; exactly the output pixels in
        // its footprint may change, and the footprint is tight for box.
        let src = checkerboard(9, 7);
        for (dst, f) in [
            (Size::new(4, 3), ScaleFilter::Box),
            (Size::new(4, 3), ScaleFilter::Nearest),
            (Size::new(20, 13), ScaleFilter::Bilinear),
            (Size::new(5, 11), ScaleFilter::Bilinear),
        ] {
            let taps = ScaleTaps::new(src.size(), dst, f);
            let before = scale(&src, dst, f);
            for p in src.bounds().pixels() {
                let mut changed = src.clone();
                changed.set_pixel(p, Color::rgb(10, 200, 30));
                let after = scale(&changed, dst, f);
                let foot = taps.footprint(Rect::new(p.x, p.y, 1, 1));
                for q in before.bounds().pixels() {
                    if before.pixel(q) != after.pixel(q) {
                        assert!(
                            foot.is_some_and(|r| r.contains(q)),
                            "{f} {dst}: {q} changed outside footprint {foot:?} of {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scale_to_fit_never_zero() {
        let src = Framebuffer::new(1000, 10, Color::BLACK);
        let out = scale_to_fit(&src, Size::new(5, 5), ScaleFilter::Box);
        assert!(out.width() >= 1 && out.height() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_target_panics() {
        let src = Framebuffer::new(4, 4, Color::BLACK);
        scale(&src, Size::ZERO, ScaleFilter::Nearest);
    }
}
