//! Color quantization and dithering.
//!
//! Shallow output devices (4-bit PDA panels, 1-bit phone LCDs) cannot show
//! 24-bit pixels; the UniInt output plug-ins quantize frames to the device
//! palette, optionally with error-diffusion or ordered dithering so GUI
//! gradients and images stay legible.

use crate::color::{Color, Palette};
use crate::framebuffer::Framebuffer;
use crate::pixel::PixelFormat;
use serde::{Deserialize, Serialize};

/// Dithering algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DitherMode {
    /// Straight nearest-color quantization.
    #[default]
    None,
    /// Floyd–Steinberg error diffusion (serpentine-free, row major).
    FloydSteinberg,
    /// Ordered dithering with a 4×4 Bayer matrix.
    Ordered4x4,
}

impl core::fmt::Display for DitherMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DitherMode::None => "none",
            DitherMode::FloydSteinberg => "floyd-steinberg",
            DitherMode::Ordered4x4 => "ordered4x4",
        };
        f.write_str(s)
    }
}

/// 4×4 Bayer threshold matrix, values `0..16`.
const BAYER4: [[i32; 4]; 4] = [[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]];

/// One Floyd–Steinberg error row: accumulated per-channel error, in
/// 1/16ths, for output columns `-1..=w` (index `x + 1` holds column `x`).
pub type ErrorRow = [[i32; 3]];

/// Depth reduction for one target: the device palette (built once) and
/// the dither mode, applied a span or a row at a time so a frame can be
/// reduced in pieces. [`dither_to_palette`] and [`dither_to_format`] are
/// whole-frame wrappers over the same kernels.
#[derive(Debug, Clone)]
pub struct Reducer {
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// 24-bit output: pixels pass through.
    Identity,
    /// Channel-wise reduction to a true-color format, optionally with an
    /// ordered bias.
    Channel { format: PixelFormat, ordered: bool },
    /// Nearest-entry quantization to a palette.
    Palette {
        palette: Palette,
        mode: DitherMode,
        /// Ordered-dither bias amplitude.
        amp: i32,
    },
}

impl Reducer {
    /// Reduction to `palette` with `mode`.
    pub fn for_palette(palette: Palette, mode: DitherMode) -> Reducer {
        // Bias amplitude scaled to the palette's average quantization
        // step so 2-color and 256-color palettes both dither sensibly.
        let amp = (256 / (palette.len().min(64)) as i32).max(8);
        Reducer {
            kind: Kind::Palette { palette, mode, amp },
        }
    }

    /// Reduction to what `format` can represent. True-color formats
    /// quantize channel-wise; palette-ish formats (`Gray4`, `Mono1`,
    /// `Indexed8`, `Gray8`) go through an explicit palette.
    pub fn for_format(format: PixelFormat, mode: DitherMode) -> Reducer {
        let palette = match format {
            PixelFormat::Mono1 => Palette::mono(),
            PixelFormat::Gray4 => Palette::grayscale(16),
            PixelFormat::Indexed8 => Palette::websafe(),
            PixelFormat::Gray8 => Palette::grayscale(256),
            PixelFormat::Rgb888 => {
                return Reducer {
                    kind: Kind::Identity,
                }
            }
            // Error diffusion is overkill for >=12bpp GUI content, so
            // only the ordered mode perturbs here.
            PixelFormat::Rgb565 | PixelFormat::Rgb444 => {
                return Reducer {
                    kind: Kind::Channel {
                        format,
                        ordered: mode == DitherMode::Ordered4x4,
                    },
                }
            }
        };
        Reducer::for_palette(palette, mode)
    }

    /// Whether reduction diffuses error along and across rows
    /// (Floyd–Steinberg to a palette). Such frames must be reduced whole
    /// rows at a time, top to bottom, with [`reduce_row`](Self::reduce_row);
    /// otherwise every output pixel depends only on its input pixel and
    /// position, and [`reduce_span`](Self::reduce_span) applies.
    pub fn diffuses(&self) -> bool {
        matches!(
            self.kind,
            Kind::Palette {
                mode: DitherMode::FloydSteinberg,
                ..
            }
        )
    }

    /// Reduces the pixels `src` at columns `x0..` of row `y` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the reducer
    /// [`diffuses`](Self::diffuses).
    pub fn reduce_span(&self, src: &[Color], x0: usize, y: usize, out: &mut [Color]) {
        assert_eq!(src.len(), out.len(), "span lengths differ");
        assert!(!self.diffuses(), "error diffusion needs whole rows");
        // Ordered-dither threshold of column `x`, -8..8.
        let bayer = |x: usize| BAYER4[y % 4][x % 4] - 8;
        let pixels = out.iter_mut().zip(src).zip(x0..);
        match &self.kind {
            Kind::Identity => out.copy_from_slice(src),
            Kind::Channel {
                format,
                ordered: false,
            } => pixels.for_each(|((o, &p), _)| *o = format.reduce(p)),
            Kind::Channel {
                format,
                ordered: true,
            } => pixels.for_each(|((o, &p), x)| {
                let t = bayer(x);
                let bias = if *format == PixelFormat::Rgb444 {
                    t
                } else {
                    t / 2
                };
                *o = format.reduce(biased(p, bias));
            }),
            Kind::Palette {
                palette,
                mode: DitherMode::Ordered4x4,
                amp,
            } => pixels.for_each(|((o, &p), x)| {
                *o = palette.quantize(biased(p, bayer(x) * amp / 8));
            }),
            Kind::Palette { palette, .. } => {
                pixels.for_each(|((o, &p), _)| *o = palette.quantize(p));
            }
        }
    }

    /// Reduces one whole row `src` into `out`. `err` holds the row's
    /// incoming error (`src.len() + 2` entries) and is used up; `next`
    /// (same length) is overwritten with the error passed to the row
    /// below. Rows of a non-diffusing reducer ignore both.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn reduce_row(
        &self,
        src: &[Color],
        y: usize,
        err: &mut ErrorRow,
        next: &mut ErrorRow,
        out: &mut [Color],
    ) {
        let Kind::Palette {
            palette,
            mode: DitherMode::FloydSteinberg,
            ..
        } = &self.kind
        else {
            return self.reduce_span(src, 0, y, out);
        };
        let w = src.len();
        assert!(
            out.len() == w && err.len() == w + 2 && next.len() == w + 2,
            "row lengths differ"
        );
        next.fill([0; 3]);
        for x in 0..w {
            let e = err[x + 1];
            let p = src[x];
            let adj = Color::rgb(
                (p.r as i32 + e[0] / 16).clamp(0, 255) as u8,
                (p.g as i32 + e[1] / 16).clamp(0, 255) as u8,
                (p.b as i32 + e[2] / 16).clamp(0, 255) as u8,
            );
            let q = palette.quantize(adj);
            out[x] = q;
            let d = [
                adj.r as i32 - q.r as i32,
                adj.g as i32 - q.g as i32,
                adj.b as i32 - q.b as i32,
            ];
            for ch in 0..3 {
                err[x + 2][ch] += d[ch] * 7;
                next[x][ch] += d[ch] * 3;
                next[x + 1][ch] += d[ch] * 5;
                next[x + 2][ch] += d[ch];
            }
        }
    }

    /// Reduces a whole frame.
    pub fn reduce(&self, src: &Framebuffer) -> Framebuffer {
        if matches!(self.kind, Kind::Identity) {
            return src.clone();
        }
        let w = src.width() as usize;
        let mut out = vec![Color::BLACK; w * src.height() as usize];
        let mut err = vec![[0i32; 3]; w + 2];
        let mut next = vec![[0i32; 3]; w + 2];
        for (y, row_out) in out.chunks_exact_mut(w).enumerate() {
            self.reduce_row(src.row(y as u32), y, &mut err, &mut next, row_out);
            core::mem::swap(&mut err, &mut next);
        }
        Framebuffer::from_pixels(src.size(), out)
    }
}

/// `p` with `bias` added to every channel, clamped.
fn biased(p: Color, bias: i32) -> Color {
    Color::rgb(
        (p.r as i32 + bias).clamp(0, 255) as u8,
        (p.g as i32 + bias).clamp(0, 255) as u8,
        (p.b as i32 + bias).clamp(0, 255) as u8,
    )
}

/// Quantizes every pixel of `src` to `palette`, applying `mode`.
/// Returns a new framebuffer whose pixels are all palette colors.
pub fn dither_to_palette(src: &Framebuffer, palette: &Palette, mode: DitherMode) -> Framebuffer {
    Reducer::for_palette(palette.clone(), mode).reduce(src)
}

/// Reduces every pixel of `src` to what `format` can represent, dithering
/// with `mode`. See [`Reducer::for_format`].
pub fn dither_to_format(src: &Framebuffer, format: PixelFormat, mode: DitherMode) -> Framebuffer {
    Reducer::for_format(format, mode).reduce(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    fn gradient(w: u32, h: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h, Color::BLACK);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                let v = (x * 255 / (w as i32 - 1).max(1)) as u8;
                fb.set_pixel(Point::new(x, y), Color::gray(v));
            }
        }
        fb
    }

    #[test]
    fn none_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::grayscale(4);
        let out = dither_to_palette(&src, &pal, DitherMode::None);
        for &p in out.pixels() {
            assert!(pal.colors().contains(&p));
        }
    }

    #[test]
    fn fs_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::mono();
        let out = dither_to_palette(&src, &pal, DitherMode::FloydSteinberg);
        for &p in out.pixels() {
            assert!(p == Color::BLACK || p == Color::WHITE);
        }
    }

    #[test]
    fn ordered_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::vga16();
        let out = dither_to_palette(&src, &pal, DitherMode::Ordered4x4);
        for &p in out.pixels() {
            assert!(pal.colors().contains(&p));
        }
    }

    #[test]
    fn dither_preserves_mean_brightness() {
        // Mid-gray dithered to mono should be ~50% white.
        let mut src = Framebuffer::new(64, 64, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 64, 64), Color::gray(128));
        for mode in [DitherMode::FloydSteinberg, DitherMode::Ordered4x4] {
            let out = dither_to_palette(&src, &Palette::mono(), mode);
            let white = out.pixels().iter().filter(|&&p| p == Color::WHITE).count();
            let frac = white as f64 / (64.0 * 64.0);
            assert!(
                (0.35..=0.65).contains(&frac),
                "{mode}: expected ~half white, got {frac}"
            );
        }
    }

    #[test]
    fn none_mode_mid_gray_is_uniform() {
        let mut src = Framebuffer::new(8, 8, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 8, 8), Color::gray(128));
        let out = dither_to_palette(&src, &Palette::mono(), DitherMode::None);
        let first = out.pixels()[0];
        assert!(out.pixels().iter().all(|&p| p == first));
    }

    #[test]
    fn dither_to_format_rgb888_identity() {
        let src = gradient(16, 4);
        let out = dither_to_format(&src, PixelFormat::Rgb888, DitherMode::FloydSteinberg);
        assert_eq!(out, src);
    }

    #[test]
    fn dither_to_format_reduced_is_representable() {
        let src = gradient(16, 4);
        for f in [
            PixelFormat::Rgb565,
            PixelFormat::Rgb444,
            PixelFormat::Gray8,
            PixelFormat::Gray4,
            PixelFormat::Mono1,
            PixelFormat::Indexed8,
        ] {
            let out = dither_to_format(&src, f, DitherMode::None);
            for &p in out.pixels() {
                assert_eq!(f.reduce(p), p, "{f}: {p} not representable");
            }
        }
    }

    #[test]
    fn black_and_white_are_fixed_points() {
        let mut src = Framebuffer::new(8, 2, Color::BLACK);
        src.fill_rect(Rect::new(4, 0, 4, 2), Color::WHITE);
        for mode in [
            DitherMode::None,
            DitherMode::FloydSteinberg,
            DitherMode::Ordered4x4,
        ] {
            let out = dither_to_palette(&src, &Palette::mono(), mode);
            assert_eq!(out.pixel(Point::new(0, 0)), Some(Color::BLACK), "{mode}");
            assert_eq!(out.pixel(Point::new(7, 0)), Some(Color::WHITE), "{mode}");
        }
    }
}
