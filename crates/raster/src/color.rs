//! Colors and palettes.
//!
//! The canonical in-memory color is 24-bit RGB ([`Color`]). Output devices
//! with shallower displays (PDA, phone LCD, terminal) get their pixels via
//! the palettes and pixel formats in this crate.

use serde::{Deserialize, Serialize};

/// A 24-bit RGB color.
///
/// ```
/// use uniint_raster::color::Color;
/// let c = Color::rgb(0x12, 0x34, 0x56);
/// assert_eq!(c.to_u32(), 0x123456);
/// assert_eq!(Color::from_u32(0x123456), c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Pure black.
    pub const BLACK: Color = Color::rgb(0, 0, 0);
    /// Pure white.
    pub const WHITE: Color = Color::rgb(255, 255, 255);
    /// Pure red.
    pub const RED: Color = Color::rgb(255, 0, 0);
    /// Pure green.
    pub const GREEN: Color = Color::rgb(0, 255, 0);
    /// Pure blue.
    pub const BLUE: Color = Color::rgb(0, 0, 255);
    /// Mid gray.
    pub const GRAY: Color = Color::rgb(128, 128, 128);
    /// Light gray (classic toolkit chrome).
    pub const LIGHT_GRAY: Color = Color::rgb(200, 200, 200);
    /// Dark gray.
    pub const DARK_GRAY: Color = Color::rgb(64, 64, 64);
    /// Yellow.
    pub const YELLOW: Color = Color::rgb(255, 255, 0);
    /// Cyan.
    pub const CYAN: Color = Color::rgb(0, 255, 255);
    /// Magenta.
    pub const MAGENTA: Color = Color::rgb(255, 0, 255);

    /// Creates a color from channel values.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// Creates a gray level.
    pub const fn gray(v: u8) -> Color {
        Color::rgb(v, v, v)
    }

    /// Packs to `0x00RRGGBB`.
    pub const fn to_u32(self) -> u32 {
        ((self.r as u32) << 16) | ((self.g as u32) << 8) | self.b as u32
    }

    /// Unpacks from `0x00RRGGBB`.
    pub const fn from_u32(v: u32) -> Color {
        Color::rgb((v >> 16) as u8, (v >> 8) as u8, v as u8)
    }

    /// ITU-R BT.601 luma, `0..=255`.
    pub fn luma(self) -> u8 {
        // Fixed-point 0.299 R + 0.587 G + 0.114 B.
        ((self.r as u32 * 77 + self.g as u32 * 150 + self.b as u32 * 29) >> 8) as u8
    }

    /// Squared Euclidean distance in RGB space.
    pub fn dist2(self, other: Color) -> u32 {
        let dr = self.r as i32 - other.r as i32;
        let dg = self.g as i32 - other.g as i32;
        let db = self.b as i32 - other.b as i32;
        (dr * dr + dg * dg + db * db) as u32
    }

    /// Linear interpolation between two colors; `t` in `0..=256` where 0 is
    /// `self` and 256 is `other`.
    pub fn lerp(self, other: Color, t: u32) -> Color {
        let t = t.min(256);
        let mix = |a: u8, b: u8| -> u8 { ((a as u32 * (256 - t) + b as u32 * t) >> 8) as u8 };
        Color::rgb(
            mix(self.r, other.r),
            mix(self.g, other.g),
            mix(self.b, other.b),
        )
    }

    /// A lighter version of the color (for bevel highlights).
    pub fn lighten(self) -> Color {
        self.lerp(Color::WHITE, 96)
    }

    /// A darker version of the color (for bevel shadows).
    pub fn darken(self) -> Color {
        self.lerp(Color::BLACK, 96)
    }
}

impl core::fmt::Display for Color {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

impl From<u32> for Color {
    fn from(v: u32) -> Self {
        Color::from_u32(v)
    }
}

impl From<Color> for u32 {
    fn from(c: Color) -> Self {
        c.to_u32()
    }
}

/// Pixels per block in [`first_difference`] and [`last_difference`].
const BLOCK: usize = 16;

/// Whether two pixel blocks differ. A fixed-size fold the compiler turns
/// into a few vector operations; slice `==` on colors compares pixel by
/// pixel and costs several times more.
fn block_differs(a: &[Color], b: &[Color]) -> bool {
    let (a, b): (&[Color; BLOCK], &[Color; BLOCK]) = match (a.try_into(), b.try_into()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => unreachable!("blocks are BLOCK pixels long"),
    };
    let mut acc = 0u8;
    for i in 0..BLOCK {
        acc |= (a[i].r ^ b[i].r) | (a[i].g ^ b[i].g) | (a[i].b ^ b[i].b);
    }
    acc != 0
}

/// The first index at which two equally long pixel slices differ.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn first_difference(a: &[Color], b: &[Color]) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "compared spans must match");
    let mut blocks = a.chunks_exact(BLOCK).zip(b.chunks_exact(BLOCK));
    let start = blocks
        .position(|(x, y)| block_differs(x, y))
        .map_or(a.len() - a.len() % BLOCK, |k| k * BLOCK);
    (start..a.len()).find(|&i| a[i] != b[i])
}

/// One past the last index at which two equally long pixel slices
/// differ.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn last_difference(a: &[Color], b: &[Color]) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "compared spans must match");
    let mut blocks = a.rchunks_exact(BLOCK).zip(b.rchunks_exact(BLOCK));
    let end = a.len()
        - blocks
            .position(|(x, y)| block_differs(x, y))
            .map_or(a.len() - a.len() % BLOCK, |k| k * BLOCK);
    (0..end).rev().find(|&i| a[i] != b[i]).map(|i| i + 1)
}

/// An indexed palette of colors, used for shallow output devices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Palette {
    entries: Vec<Color>,
}

impl Palette {
    /// Creates a palette from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or holds more than 256 colors.
    pub fn new(entries: Vec<Color>) -> Palette {
        assert!(
            !entries.is_empty() && entries.len() <= 256,
            "palette must hold 1..=256 colors"
        );
        Palette { entries }
    }

    /// Black-and-white palette (1-bit displays).
    pub fn mono() -> Palette {
        Palette::new(vec![Color::BLACK, Color::WHITE])
    }

    /// `n`-level grayscale ramp.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 256`.
    pub fn grayscale(n: usize) -> Palette {
        assert!((2..=256).contains(&n), "grayscale needs 2..=256 levels");
        let entries = (0..n)
            .map(|i| Color::gray((i * 255 / (n - 1)) as u8))
            .collect();
        Palette::new(entries)
    }

    /// The 16-color EGA/VGA palette, typical of early PDA screens.
    pub fn vga16() -> Palette {
        Palette::new(vec![
            Color::rgb(0, 0, 0),
            Color::rgb(128, 0, 0),
            Color::rgb(0, 128, 0),
            Color::rgb(128, 128, 0),
            Color::rgb(0, 0, 128),
            Color::rgb(128, 0, 128),
            Color::rgb(0, 128, 128),
            Color::rgb(192, 192, 192),
            Color::rgb(128, 128, 128),
            Color::rgb(255, 0, 0),
            Color::rgb(0, 255, 0),
            Color::rgb(255, 255, 0),
            Color::rgb(0, 0, 255),
            Color::rgb(255, 0, 255),
            Color::rgb(0, 255, 255),
            Color::rgb(255, 255, 255),
        ])
    }

    /// The 216-color "web-safe" cube (6 levels per channel).
    pub fn websafe() -> Palette {
        let mut entries = Vec::with_capacity(216);
        for r in 0..6 {
            for g in 0..6 {
                for b in 0..6 {
                    entries.push(Color::rgb(r * 51, g * 51, b * 51));
                }
            }
        }
        Palette::new(entries)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: palettes hold at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The palette entries.
    pub fn colors(&self) -> &[Color] {
        &self.entries
    }

    /// Color at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn color(&self, index: u8) -> Color {
        self.entries[index as usize]
    }

    /// Index of the entry closest (RGB distance) to `c`.
    pub fn nearest(&self, c: Color) -> u8 {
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        for (i, &e) in self.entries.iter().enumerate() {
            let d = c.dist2(e);
            if d < best_d {
                best_d = d;
                best = i;
                if d == 0 {
                    break;
                }
            }
        }
        best as u8
    }

    /// Quantizes `c` to the nearest palette color.
    pub fn quantize(&self, c: Color) -> Color {
        self.color(self.nearest(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_and_last_difference_find_the_changed_span() {
        let a = vec![Color::BLACK; 53];
        assert_eq!(first_difference(&a, &a), None);
        assert_eq!(last_difference(&a, &a), None);
        for lo in [0, 1, 15, 16, 17, 36, 52] {
            for hi in [lo, lo + 1, 31, 37, 52] {
                if hi < lo || hi >= a.len() {
                    continue;
                }
                let mut b = a.clone();
                b[lo] = Color::WHITE;
                b[hi] = Color::RED;
                assert_eq!(first_difference(&a, &b), Some(lo), "{lo}..={hi}");
                assert_eq!(last_difference(&a, &b), Some(hi + 1), "{lo}..={hi}");
            }
        }
    }

    #[test]
    fn pack_roundtrip() {
        for v in [0u32, 0xffffff, 0x123456, 0x00ff00] {
            assert_eq!(Color::from_u32(v).to_u32(), v);
        }
    }

    #[test]
    fn luma_extremes() {
        assert_eq!(Color::BLACK.luma(), 0);
        assert!(Color::WHITE.luma() >= 254);
        assert!(Color::GREEN.luma() > Color::BLUE.luma());
    }

    #[test]
    fn lerp_endpoints() {
        let a = Color::rgb(10, 20, 30);
        let b = Color::rgb(200, 100, 50);
        assert_eq!(a.lerp(b, 0), a);
        assert_eq!(a.lerp(b, 256), b);
        let mid = a.lerp(b, 128);
        assert!(mid.r > a.r && mid.r < b.r);
    }

    #[test]
    fn lighten_darken_move_towards_extremes() {
        let c = Color::rgb(100, 100, 100);
        assert!(c.lighten().r > c.r);
        assert!(c.darken().r < c.r);
    }

    #[test]
    fn mono_palette_nearest() {
        let p = Palette::mono();
        assert_eq!(p.nearest(Color::rgb(10, 10, 10)), 0);
        assert_eq!(p.nearest(Color::rgb(250, 250, 250)), 1);
    }

    #[test]
    fn grayscale_palette_is_ramp() {
        let p = Palette::grayscale(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.color(0), Color::BLACK);
        assert_eq!(p.color(3), Color::WHITE);
        let c1 = p.color(1);
        let c2 = p.color(2);
        assert!(c1.r < c2.r);
    }

    #[test]
    fn vga16_and_websafe_sizes() {
        assert_eq!(Palette::vga16().len(), 16);
        assert_eq!(Palette::websafe().len(), 216);
    }

    #[test]
    fn websafe_quantize_is_idempotent() {
        let p = Palette::websafe();
        let q = p.quantize(Color::rgb(123, 45, 67));
        assert_eq!(p.quantize(q), q);
    }

    #[test]
    fn nearest_exact_match() {
        let p = Palette::vga16();
        for (i, &c) in p.colors().iter().enumerate() {
            assert_eq!(p.nearest(c) as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "palette must hold")]
    fn empty_palette_panics() {
        Palette::new(vec![]);
    }
}
