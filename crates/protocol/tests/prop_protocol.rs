//! Property tests: every encoding round-trips arbitrary images; arbitrary
//! messages survive encode→frame→decode; and the decoders never panic on
//! arbitrary bytes (robustness against hostile/corrupt streams).

use proptest::prelude::*;
use uniint_protocol::encoding::{
    choose_encoding, decode_rect, encode_auto, encode_copy_rect, encode_rect, DecodedRect, Encoding,
};
use uniint_protocol::input::{ButtonMask, InputEvent, KeySym};
use uniint_protocol::message::{
    encode_client, encode_server, ClientMessage, FrameReader, RectUpdate, ServerMessage,
};
use uniint_raster::color::Color;
use uniint_raster::geom::{Point, Rect};
use uniint_raster::pixel::PixelFormat;

/// Every pixel encoding (CopyRect is exercised separately: its payload is
/// a source point, not pixels).
const PIXEL_ENCODINGS: [Encoding; 5] = [
    Encoding::Raw,
    Encoding::Rre,
    Encoding::Hextile,
    Encoding::Rle,
    Encoding::PaletteRle,
];

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b))
}

/// Low-cardinality colors make RRE/Hextile take their interesting paths.
fn arb_gui_color() -> impl Strategy<Value = Color> {
    prop_oneof![
        Just(Color::LIGHT_GRAY),
        Just(Color::BLACK),
        Just(Color::WHITE),
        Just(Color::BLUE),
        arb_color(),
    ]
}

fn arb_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..50, 1u32..40).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_gui_color(), (w * h) as usize)
            .prop_map(move |px| (Rect::new(0, 0, w, h), px))
    })
}

/// Images with many distinct colors: past the chooser's 64-color limit
/// and, for the larger ones, past the 255-entry PaletteRle palette.
fn arb_many_color_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..40, 1u32..40).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_color(), (w * h) as usize)
            .prop_map(move |px| (Rect::new(0, 0, w, h), px))
    })
}

/// Two-color images, which the chooser sends as RRE.
fn arb_two_color_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..30, 1u32..30, arb_color(), arb_color()).prop_flat_map(|(w, h, a, b)| {
        proptest::collection::vec(any::<bool>(), (w * h) as usize).prop_map(move |bits| {
            let px = bits.iter().map(|&bit| if bit { a } else { b }).collect();
            (Rect::new(0, 0, w, h), px)
        })
    })
}

/// Images with a distinct-color count right at the chooser's 64-color
/// limit or the 255-entry palette limit, in runs of 1 to 3 pixels.
fn arb_limit_color_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (
        prop_oneof![62usize..68, 253usize..259],
        1usize..3,
        1u32..40,
        any::<u8>(),
    )
        .prop_map(|(n, step, w, blue)| {
            let mut px: Vec<Color> = (0..n)
                .flat_map(|i| {
                    let c = Color::rgb(i as u8, (i >> 8) as u8, blue);
                    std::iter::repeat_n(c, 1 + i * step % 3)
                })
                .collect();
            let h = px.len().div_ceil(w as usize) as u32;
            px.resize((w * h) as usize, px[0]);
            (Rect::new(0, 0, w, h), px)
        })
}

/// A frozen copy of the hash-based chooser and encoders the single-scan
/// ones replaced, kept as the byte-identity oracle.
mod reference {
    use bytes::BufMut;
    use std::collections::{HashMap, HashSet};
    use uniint_protocol::encoding::Encoding;
    use uniint_raster::color::Color;
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::{pack_row, PixelFormat};

    fn put_pixel(fmt: PixelFormat, c: Color, out: &mut Vec<u8>) {
        pack_row(fmt, &[c], None, out);
    }

    pub fn choose_encoding(pixels: &[Color], rect: Rect, allowed: &[Encoding]) -> Encoding {
        let allows = |e: Encoding| allowed.contains(&e);
        let mut distinct = HashSet::new();
        let mut transitions = 0usize;
        let mut prev: Option<Color> = None;
        for &p in pixels {
            distinct.insert(p.to_u32());
            if prev != Some(p) {
                transitions += 1;
                prev = Some(p);
            }
            if distinct.len() > 64 {
                break;
            }
        }
        let area = rect.area().max(1) as usize;
        let density = transitions as f64 / area as f64;
        if distinct.len() <= 2 && allows(Encoding::Rre) {
            return Encoding::Rre;
        }
        if distinct.len() <= 64 && allows(Encoding::PaletteRle) {
            return Encoding::PaletteRle;
        }
        if density < 0.05 && allows(Encoding::Rle) {
            return Encoding::Rle;
        }
        if distinct.len() <= 64 && allows(Encoding::Hextile) {
            return Encoding::Hextile;
        }
        if allows(Encoding::Raw) {
            return Encoding::Raw;
        }
        *allowed.first().unwrap_or(&Encoding::Raw)
    }

    pub fn encode_rect(pixels: &[Color], rect: Rect, enc: Encoding, fmt: PixelFormat) -> Vec<u8> {
        match enc {
            Encoding::Raw => encode_raw(pixels, rect, fmt),
            Encoding::Rre => encode_rre(pixels, rect, fmt),
            Encoding::Hextile => encode_hextile(pixels, rect, fmt),
            Encoding::Rle => encode_rle(pixels, fmt),
            Encoding::PaletteRle => encode_palette_rle(pixels, rect, fmt),
            Encoding::CopyRect => unreachable!("no pixels"),
        }
    }

    fn encode_raw(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
        let mut out = Vec::new();
        for row in pixels.chunks_exact(rect.w as usize) {
            pack_row(fmt, row, None, &mut out);
        }
        out
    }

    /// Whether one color is strictly more frequent than every other, so
    /// the hash-ordered `dominant_color` below is deterministic.
    pub fn dominant_is_unique(pixels: &[Color]) -> bool {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for p in pixels {
            *counts.entry(p.to_u32()).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        counts.values().filter(|&&n| n == max).count() <= 1
    }

    fn dominant_color(pixels: &[Color]) -> Color {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for p in pixels {
            *counts.entry(p.to_u32()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map(|(c, _)| Color::from_u32(c))
            .unwrap_or(Color::BLACK)
    }

    type SubRect = (Color, u16, u16, u16, u16);

    fn subrects_for(pixels: &[Color], rect: Rect, bg: Color) -> Vec<SubRect> {
        let w = rect.w as usize;
        let mut out: Vec<SubRect> = Vec::new();
        let mut prev_open: HashMap<(u16, u16, u32), usize> = HashMap::new();
        for y in 0..rect.h as usize {
            let row = &pixels[y * w..(y + 1) * w];
            let mut cur_open: HashMap<(u16, u16, u32), usize> = HashMap::new();
            let mut x = 0usize;
            while x < w {
                let c = row[x];
                if c == bg {
                    x += 1;
                    continue;
                }
                let start = x;
                while x < w && row[x] == c {
                    x += 1;
                }
                let run_w = (x - start) as u16;
                let key = (start as u16, run_w, c.to_u32());
                if let Some(&idx) = prev_open.get(&key) {
                    if out[idx].2 as usize + out[idx].4 as usize == y {
                        out[idx].4 += 1;
                        cur_open.insert(key, idx);
                        continue;
                    }
                }
                out.push((c, start as u16, y as u16, run_w, 1));
                cur_open.insert(key, out.len() - 1);
            }
            prev_open = cur_open;
        }
        out
    }

    fn encode_rre(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
        let bg = dominant_color(pixels);
        let subs = subrects_for(pixels, rect, bg);
        let mut out = Vec::new();
        out.put_u32(subs.len() as u32);
        put_pixel(fmt, bg, &mut out);
        for (c, x, y, w, h) in subs {
            put_pixel(fmt, c, &mut out);
            out.put_u16(x);
            out.put_u16(y);
            out.put_u16(w);
            out.put_u16(h);
        }
        out
    }

    pub const TILE: usize = 16;

    /// The pixels of each Hextile tile, in wire order.
    pub fn tiles(pixels: &[Color], rect: Rect) -> Vec<Vec<Color>> {
        let (w, h) = (rect.w as usize, rect.h as usize);
        let mut out = Vec::new();
        for ty in (0..h).step_by(TILE) {
            for tx in (0..w).step_by(TILE) {
                let tw = TILE.min(w - tx);
                let mut tile = Vec::new();
                for yy in ty..ty + TILE.min(h - ty) {
                    tile.extend_from_slice(&pixels[yy * w + tx..yy * w + tx + tw]);
                }
                out.push(tile);
            }
        }
        out
    }

    fn encode_hextile(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
        let w = rect.w as usize;
        let mut out = Vec::new();
        let mut last_bg: Option<Color> = None;
        let mut tiles = tiles(pixels, rect).into_iter();
        for ty in (0..rect.h as usize).step_by(TILE) {
            for tx in (0..w).step_by(TILE) {
                let tw = TILE.min(w - tx);
                let th = TILE.min(rect.h as usize - ty);
                let tile = tiles.next().unwrap();
                let bg = dominant_color(&tile);
                let subs = subrects_for(&tile, Rect::new(0, 0, tw as u32, th as u32), bg);
                let px_bytes = fmt.row_bytes(1);
                let sub_cost = 1
                    + if last_bg == Some(bg) { 0 } else { px_bytes }
                    + 1
                    + subs.len() * (px_bytes + 2);
                let raw_cost = 1 + th * fmt.row_bytes(tw as u32);
                if subs.len() > 255 || sub_cost >= raw_cost {
                    out.push(1);
                    for yy in 0..th {
                        pack_row(fmt, &tile[yy * tw..(yy + 1) * tw], None, &mut out);
                    }
                    last_bg = None;
                    continue;
                }
                let mut flags = 8 | 16;
                if last_bg != Some(bg) {
                    flags |= 2;
                }
                out.push(flags);
                if flags & 2 != 0 {
                    put_pixel(fmt, bg, &mut out);
                    last_bg = Some(bg);
                }
                out.push(subs.len() as u8);
                for (c, x, y, w, h) in subs {
                    put_pixel(fmt, c, &mut out);
                    out.push(((x as u8) << 4) | (y as u8 & 0x0f));
                    out.push((((w - 1) as u8) << 4) | ((h - 1) as u8 & 0x0f));
                }
            }
        }
        out
    }

    fn encode_rle(pixels: &[Color], fmt: PixelFormat) -> Vec<u8> {
        let mut runs: Vec<(u16, Color)> = Vec::new();
        for &p in pixels {
            match runs.last_mut() {
                Some((n, c)) if *c == p && *n < u16::MAX => *n += 1,
                _ => runs.push((1, p)),
            }
        }
        let mut out = Vec::new();
        out.put_u32(runs.len() as u32);
        for (n, c) in runs {
            out.put_u16(n);
            put_pixel(fmt, c, &mut out);
        }
        out
    }

    fn encode_palette_rle(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
        let mut palette: Vec<Color> = Vec::new();
        let mut index: HashMap<u32, u8> = HashMap::new();
        for &p in pixels {
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(p.to_u32()) {
                if palette.len() == 255 {
                    let mut out = vec![0];
                    out.extend(encode_raw(pixels, rect, fmt));
                    return out;
                }
                e.insert(palette.len() as u8);
                palette.push(p);
            }
        }
        if palette.len() == 1 {
            let mut out = vec![1];
            put_pixel(fmt, palette[0], &mut out);
            return out;
        }
        let mut out = vec![2, palette.len() as u8];
        for &c in &palette {
            put_pixel(fmt, c, &mut out);
        }
        let mut runs: Vec<(u8, u16)> = Vec::new();
        for &p in pixels {
            let idx = index[&p.to_u32()];
            match runs.last_mut() {
                Some((i, n)) if *i == idx && *n < u16::MAX => *n += 1,
                _ => runs.push((idx, 1)),
            }
        }
        out.put_u32(runs.len() as u32);
        for (i, n) in runs {
            out.push(i);
            out.put_u16(n);
        }
        out
    }
}

/// Encoding sets a `SetEncodings` may leave a server with.
const ALLOWED_SETS: [&[Encoding]; 5] = [
    &Encoding::ALL,
    &[Encoding::Raw],
    &[Encoding::Hextile, Encoding::Raw],
    &[Encoding::Rle, Encoding::Rre],
    &[Encoding::PaletteRle],
];

/// Checks the chooser, `encode_auto` and every pixel encoder against
/// [`reference`]. RRE and Hextile bytes are compared only where the
/// reference's hash-ordered background is defined: a unique most
/// frequent color in the rect, or in every tile.
fn assert_matches_reference(rect: Rect, px: &[Color]) -> Result<(), TestCaseError> {
    let rre_defined = reference::dominant_is_unique(px);
    let hextile_defined = reference::tiles(px, rect)
        .iter()
        .all(|t| reference::dominant_is_unique(t));
    let defined = |enc: Encoding| match enc {
        Encoding::Rre => rre_defined,
        Encoding::Hextile => hextile_defined,
        _ => true,
    };
    for allowed in ALLOWED_SETS {
        let chosen = reference::choose_encoding(px, rect, allowed);
        prop_assert_eq!(choose_encoding(px, rect, allowed), chosen, "{:?}", allowed);
        for fmt in PixelFormat::ALL {
            let (enc, bytes) = encode_auto(px, rect, allowed, fmt);
            prop_assert_eq!(enc, chosen, "{:?}/{}", allowed, fmt);
            if defined(chosen) {
                let expected = reference::encode_rect(px, rect, chosen, fmt);
                prop_assert_eq!(bytes, expected, "auto {:?}/{}", allowed, fmt);
            }
        }
    }
    for enc in PIXEL_ENCODINGS.into_iter().filter(|&e| defined(e)) {
        for fmt in PixelFormat::ALL {
            prop_assert_eq!(
                encode_rect(px, rect, enc, fmt),
                reference::encode_rect(px, rect, enc, fmt),
                "{}/{}",
                enc,
                fmt
            );
        }
    }
    Ok(())
}

fn arb_input() -> impl Strategy<Value = InputEvent> {
    prop_oneof![
        (any::<bool>(), any::<u32>()).prop_map(|(down, s)| InputEvent::Key {
            down,
            sym: KeySym(s)
        }),
        (any::<u16>(), any::<u16>(), any::<u8>()).prop_map(|(x, y, b)| InputEvent::Pointer {
            x,
            y,
            buttons: ButtonMask(b)
        }),
    ]
}

fn arb_client_message() -> impl Strategy<Value = ClientMessage> {
    prop_oneof![
        (any::<u16>(), ".{0,32}")
            .prop_map(|(version, name)| ClientMessage::Hello { version, name }),
        proptest::sample::select(PixelFormat::ALL.to_vec()).prop_map(ClientMessage::SetPixelFormat),
        proptest::collection::vec(proptest::sample::select(Encoding::ALL.to_vec()), 0..5)
            .prop_map(ClientMessage::SetEncodings),
        (
            any::<bool>(),
            0u16..1000,
            0u16..1000,
            0u32..2000,
            0u32..2000
        )
            .prop_map(|(inc, x, y, w, h)| ClientMessage::UpdateRequest {
                incremental: inc,
                rect: Rect::new(x as i32, y as i32, w, h),
            }),
        arb_input().prop_map(ClientMessage::Input),
        ".{0,64}".prop_map(ClientMessage::CutText),
        any::<u64>().prop_map(|last_update_seq| ClientMessage::Resume { last_update_seq }),
    ]
}

fn arb_server_message() -> impl Strategy<Value = ServerMessage> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u16>(), ".{0,32}").prop_map(|(v, w, h, name)| {
            ServerMessage::Init {
                version: v,
                width: w,
                height: h,
                format: PixelFormat::Rgb565,
                name,
            }
        }),
        proptest::collection::vec(
            (
                0u16..500,
                0u16..500,
                1u32..64,
                1u32..64,
                proptest::collection::vec(any::<u8>(), 0..64)
            )
                .prop_map(|(x, y, w, h, payload)| RectUpdate {
                    rect: Rect::new(x as i32, y as i32, w, h),
                    encoding: Encoding::Raw,
                    payload,
                }),
            0..4
        )
        .prop_flat_map(|rects| {
            any::<u64>().prop_map(move |seq| ServerMessage::Update {
                seq,
                format: PixelFormat::Rgb888,
                rects: rects.clone(),
            })
        }),
        Just(ServerMessage::Bell),
        ".{0,64}".prop_map(ServerMessage::CutText),
        (any::<u16>(), any::<u16>())
            .prop_map(|(width, height)| ServerMessage::Resize { width, height }),
        (any::<u64>(), any::<bool>()).prop_map(|(client_msgs_received, replayed)| {
            ServerMessage::ResumeAck {
                client_msgs_received,
                replayed,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encodings_roundtrip_arbitrary_images((rect, px) in arb_image()) {
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let mut cursor: &[u8] = &bytes;
                match decode_rect(&mut cursor, rect, enc, fmt) {
                    Ok(DecodedRect::Pixels(out)) => {
                        prop_assert_eq!(&out, &reduced, "{}/{}", enc, fmt);
                        prop_assert!(cursor.is_empty(), "{}/{} trailing bytes", enc, fmt);
                    }
                    other => return Err(TestCaseError::fail(format!("{enc}/{fmt}: {other:?}"))),
                }
            }
        }
    }

    #[test]
    fn encoders_match_hash_based_reference((rect, px) in arb_image()) {
        assert_matches_reference(rect, &px)?;
    }

    #[test]
    fn encoders_match_reference_past_palette_limits((rect, px) in arb_many_color_image()) {
        assert_matches_reference(rect, &px)?;
    }

    #[test]
    fn encoders_match_reference_on_two_color_images((rect, px) in arb_two_color_image()) {
        assert_matches_reference(rect, &px)?;
    }

    #[test]
    fn encoders_match_reference_at_palette_limits((rect, px) in arb_limit_color_image()) {
        assert_matches_reference(rect, &px)?;
    }

    #[test]
    fn copy_rect_roundtrips_arbitrary_points((x, y) in (0u16..u16::MAX, 0u16..u16::MAX)) {
        let src = Point::new(x as i32, y as i32);
        let bytes = encode_copy_rect(src);
        for fmt in PixelFormat::ALL {
            let mut cursor: &[u8] = &bytes;
            match decode_rect(&mut cursor, Rect::new(0, 0, 8, 8), Encoding::CopyRect, fmt) {
                Ok(DecodedRect::CopyFrom(p)) => {
                    prop_assert_eq!(p, src);
                    prop_assert!(cursor.is_empty());
                }
                other => return Err(TestCaseError::fail(format!("copyrect/{fmt}: {other:?}"))),
            }
        }
    }

    #[test]
    fn truncated_copy_rect_errors_not_panics(keep in 0usize..4) {
        let bytes = encode_copy_rect(Point::new(12, 34));
        let mut cursor: &[u8] = &bytes[..keep];
        prop_assert!(
            decode_rect(&mut cursor, Rect::new(0, 0, 4, 4), Encoding::CopyRect, PixelFormat::Rgb888)
                .is_err()
        );
    }

    #[test]
    fn client_messages_roundtrip(msg in arb_client_message()) {
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn server_messages_roundtrip(msg in arb_server_message()) {
        let bytes = encode_server(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ServerMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn fragmentation_is_transparent(msg in arb_client_message(), cut in 1usize..16) {
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        for chunk in bytes.chunks(cut) {
            reader.feed(chunk);
        }
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ClientMessage::decode_body(&mut bytes.as_slice());
        let _ = ServerMessage::decode_body(&mut bytes.as_slice());
        let rect = Rect::new(0, 0, 16, 16);
        for enc in Encoding::ALL {
            for fmt in PixelFormat::ALL {
                let _ = decode_rect(&mut bytes.as_slice(), rect, enc, fmt);
            }
        }
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        while let Ok(Some(frame)) = reader.next_frame() {
            let _ = ClientMessage::decode_body(&mut frame.as_slice());
        }
    }

    #[test]
    fn truncated_encodings_error_not_panic((rect, px) in arb_image(), keep_frac in 0.0f64..1.0) {
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let keep = ((bytes.len() as f64) * keep_frac) as usize;
                if keep == bytes.len() {
                    continue;
                }
                let mut cursor: &[u8] = &bytes[..keep];
                // Either a clean error, or (for prefix-complete encodings
                // such as RLE with zero runs) a decode that must not panic.
                let _ = decode_rect(&mut cursor, rect, enc, fmt);
            }
        }
    }

    #[test]
    fn corrupt_encodings_error_not_panic((rect, px) in arb_image(), flip in 0usize..64, xor in 1u8..=255) {
        for enc in PIXEL_ENCODINGS {
            let mut bytes = encode_rect(&px, rect, enc, PixelFormat::Rgb888);
            if bytes.is_empty() {
                continue;
            }
            let i = flip % bytes.len();
            bytes[i] ^= xor;
            let mut cursor: &[u8] = &bytes;
            // Corruption may still decode (payload bytes are data), but it
            // must never panic or read past the buffer.
            let _ = decode_rect(&mut cursor, rect, enc, PixelFormat::Rgb888);
        }
    }
}
