//! Property-based tests for the raster substrate: region algebra laws,
//! pixel packing round-trips, and dither/scale invariants.

use proptest::prelude::*;
use uniint_raster::color::{Color, Palette};
use uniint_raster::dither::{dither_to_palette, DitherMode};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Point, Rect, Size};
use uniint_raster::pixel::{pack_row, unpack_row, PixelFormat};
use uniint_raster::region::Region;
use uniint_raster::scale::{scale, ScaleFilter};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i32..40, 0i32..40, 0u32..20, 0u32..20).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b))
}

fn arb_fb(max: u32) -> impl Strategy<Value = Framebuffer> {
    (1..=max, 1..=max)
        .prop_flat_map(|(w, h)| {
            (
                Just(w),
                Just(h),
                proptest::collection::vec(arb_color(), (w * h) as usize),
            )
        })
        .prop_map(|(w, h, px)| {
            let mut fb = Framebuffer::new(w, h, Color::BLACK);
            fb.write_rect(Rect::new(0, 0, w, h), &px);
            fb
        })
}

/// Counts the pixels of `rects` covering the probe grid directly.
fn covered(rects: &[Rect], probe: Rect) -> Vec<bool> {
    probe
        .pixels()
        .map(|p| rects.iter().any(|r| r.contains(p)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn region_rects_stay_disjoint(rects in proptest::collection::vec(arb_rect(), 1..12)) {
        let mut reg = Region::new();
        for r in &rects {
            reg.add(*r);
        }
        let rs = reg.rects();
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                prop_assert!(!rs[i].intersects(rs[j]));
            }
        }
    }

    #[test]
    fn region_union_matches_naive_cover(rects in proptest::collection::vec(arb_rect(), 1..10)) {
        let mut reg = Region::new();
        for r in &rects {
            reg.add(*r);
        }
        let probe = Rect::new(0, 0, 64, 64);
        let naive = covered(&rects, probe);
        for (i, p) in probe.pixels().enumerate() {
            prop_assert_eq!(reg.contains(p), naive[i], "pixel {}", p);
        }
    }

    #[test]
    fn region_subtract_then_contains_false(base in arb_rect(), cut in arb_rect()) {
        let mut reg = Region::from_rect(base);
        reg.subtract(cut);
        for p in cut.pixels() {
            prop_assert!(!reg.contains(p));
        }
        // Area identity: |A \ B| = |A| - |A ∩ B|.
        let overlap = base.intersect(cut).map(|r| r.area()).unwrap_or(0);
        prop_assert_eq!(reg.area(), base.area() - overlap);
    }

    #[test]
    fn region_intersection_commutes(a in arb_rect(), b in arb_rect(), c in arb_rect()) {
        let mut ra = Region::from_rect(a);
        ra.add(b);
        let rc = Region::from_rect(c);
        let i1 = ra.intersection(&rc);
        let i2 = rc.intersection(&ra);
        prop_assert_eq!(i1.area(), i2.area());
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(b);
        prop_assert!(u.contains_rect(a));
        prop_assert!(u.contains_rect(b));
    }

    #[test]
    fn rect_intersect_is_subset(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains_rect(i));
            prop_assert!(b.contains_rect(i));
            prop_assert!(!i.is_empty());
        }
    }

    #[test]
    fn pack_unpack_roundtrips_reduced(row in proptest::collection::vec(arb_color(), 1..40)) {
        for f in [
            PixelFormat::Rgb888,
            PixelFormat::Rgb565,
            PixelFormat::Rgb444,
            PixelFormat::Gray8,
            PixelFormat::Gray4,
            PixelFormat::Mono1,
        ] {
            let reduced: Vec<Color> = row.iter().map(|&c| f.reduce(c)).collect();
            let mut bytes = Vec::new();
            pack_row(f, &reduced, None, &mut bytes);
            prop_assert_eq!(bytes.len(), f.row_bytes(row.len() as u32));
            let back = unpack_row(f, &bytes, row.len(), None);
            prop_assert_eq!(back.as_deref(), Some(&reduced[..]), "{}", f);
        }
    }

    #[test]
    fn indexed_pack_roundtrips(row in proptest::collection::vec(arb_color(), 1..40)) {
        let pal = Palette::vga16();
        let quantized: Vec<Color> = row.iter().map(|&c| pal.quantize(c)).collect();
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Indexed8, &quantized, Some(&pal), &mut bytes);
        let back = unpack_row(PixelFormat::Indexed8, &bytes, row.len(), Some(&pal)).unwrap();
        prop_assert_eq!(back, quantized);
    }

    #[test]
    fn reduce_idempotent(c in arb_color()) {
        for f in PixelFormat::ALL {
            let once = f.reduce(c);
            prop_assert_eq!(f.reduce(once), once);
        }
    }

    #[test]
    fn palette_nearest_in_range(c in arb_color()) {
        for pal in [Palette::mono(), Palette::vga16(), Palette::websafe(), Palette::grayscale(7)] {
            let idx = pal.nearest(c);
            prop_assert!((idx as usize) < pal.len());
        }
    }

    #[test]
    fn dither_output_always_in_palette(fb in arb_fb(16)) {
        let pal = Palette::grayscale(4);
        for mode in [DitherMode::None, DitherMode::FloydSteinberg, DitherMode::Ordered4x4] {
            let out = dither_to_palette(&fb, &pal, mode);
            prop_assert_eq!(out.size(), fb.size());
            for &p in out.pixels() {
                prop_assert!(pal.colors().contains(&p), "{} produced {}", mode, p);
            }
        }
    }

    #[test]
    fn scale_dimensions_exact(fb in arb_fb(12), w in 1u32..24, h in 1u32..24) {
        for filter in [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box] {
            let out = scale(&fb, Size::new(w, h), filter);
            prop_assert_eq!(out.size(), Size::new(w, h));
        }
    }

    #[test]
    fn scale_output_within_input_range(fb in arb_fb(10), w in 1u32..16, h in 1u32..16) {
        // Every filter's output luma must stay within [min, max] input luma.
        let min = fb.pixels().iter().map(|c| c.luma()).min().unwrap();
        let max = fb.pixels().iter().map(|c| c.luma()).max().unwrap();
        for filter in [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box] {
            let out = scale(&fb, Size::new(w, h), filter);
            for p in out.pixels() {
                // Small slack for per-channel rounding in lerp/average.
                prop_assert!(p.luma() as i32 >= min as i32 - 2, "{}", filter);
                prop_assert!(p.luma() as i32 <= max as i32 + 2, "{}", filter);
            }
        }
    }

    #[test]
    fn fb_copy_rect_never_panics(fb in arb_fb(16), src in arb_rect(), dx in -20i32..20, dy in -20i32..20) {
        let mut fb = fb;
        fb.copy_rect(src, Point::new(dx, dy));
    }

    #[test]
    fn fb_read_write_roundtrip(fb in arb_fb(16), r in arb_rect()) {
        let (clipped, data) = fb.read_rect(r);
        if !clipped.is_empty() {
            let mut fb2 = fb.clone();
            fb2.write_rect(clipped, &data);
            prop_assert_eq!(fb2, fb);
        }
    }
}

/// The hash-map scanline diff `Framebuffer::diff_region` used before
/// its open bands became a sorted cursor, kept as the reference for the
/// exact rectangles (and their order) it must still produce.
fn reference_diff_rects(a: &Framebuffer, b: &Framebuffer) -> Vec<Rect> {
    let w = a.width() as usize;
    let mut rects: Vec<Rect> = Vec::new();
    let mut prev_open: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for y in 0..a.height() {
        let (ra, rb) = (a.row(y), b.row(y));
        let mut cur_open = std::collections::HashMap::new();
        let mut x = 0usize;
        while x < w {
            if ra[x] == rb[x] {
                x += 1;
                continue;
            }
            let start = x;
            while x < w && ra[x] != rb[x] {
                x += 1;
            }
            let key = (start, x - start);
            if let Some(&idx) = prev_open.get(&key) {
                let r: Rect = rects[idx];
                if r.bottom() == y as i32 {
                    rects[idx] = Rect::new(r.x, r.y, r.w, r.h + 1);
                    cur_open.insert(key, idx);
                    continue;
                }
            }
            rects.push(Rect::new(start as i32, y as i32, (x - start) as u32, 1));
            cur_open.insert(key, rects.len() - 1);
        }
        prev_open = cur_open;
    }
    rects
}

/// A frame drawn from two colors, so diffs have long runs that line up
/// across rows and merge into bands.
fn arb_two_tone_fb(max_w: u32, max_h: u32) -> impl Strategy<Value = Framebuffer> {
    (1..=max_w, 1..=max_h)
        .prop_flat_map(|(w, h)| {
            (
                Just(w),
                Just(h),
                proptest::collection::vec(any::<bool>(), (w * h) as usize),
                proptest::collection::vec((0i32..40, 0i32..30, 0u32..40, 0u32..30), 0..6),
            )
        })
        .prop_map(|(w, h, noise, blocks)| {
            let mut fb = Framebuffer::new(w, h, Color::BLACK);
            // Sparse noise plus solid blocks.
            for (i, &on) in noise.iter().enumerate() {
                if on && i % 7 == 0 {
                    fb.set_pixel(
                        Point::new((i as u32 % w) as i32, (i as u32 / w) as i32),
                        Color::WHITE,
                    );
                }
            }
            for (x, y, bw, bh) in blocks {
                fb.fill_rect(Rect::new(x, y, bw, bh), Color::WHITE);
            }
            fb
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cursor-based diff yields the same rectangles, in the same
    /// order, as the hash-map scanline algorithm it replaced.
    #[test]
    fn diff_region_matches_reference(
        a in arb_two_tone_fb(40, 30),
        blocks in proptest::collection::vec((0i32..40, 0i32..30, 0u32..20, 0u32..20, any::<bool>()), 0..8),
    ) {
        let mut b = a.clone();
        for (x, y, w, h, white) in blocks {
            b.fill_rect(Rect::new(x, y, w, h), if white { Color::WHITE } else { Color::BLACK });
        }
        prop_assert_eq!(a.diff_region(&b).rects().to_vec(), reference_diff_rects(&a, &b));
        prop_assert_eq!(b.diff_region(&a).rects().to_vec(), reference_diff_rects(&b, &a));
    }

    #[test]
    fn diff_region_is_exact(fb in arb_fb(12), patch in arb_rect(), c in arb_color()) {
        let mut modified = fb.clone();
        modified.fill_rect(patch, c);
        let diff = fb.diff_region(&modified);
        // Every pixel in the diff differs; every pixel outside matches.
        for p in fb.bounds().pixels() {
            let differs = fb.pixel(p) != modified.pixel(p);
            prop_assert_eq!(diff.contains(p), differs, "pixel {}", p);
        }
    }
}
