//! Field-by-field encoders/decoders for the two small heterogeneous
//! sections of a snapshot: the GeoReach grid rectangle carried in `META`
//! and the `SPA_INFO` table.
//!
//! Everything else in a snapshot is a raw arena column (see `v3`). A
//! corrupt payload is an `Err(String)`, never a panic. Geometry is decoded
//! through struct literals — not the `new` constructors, whose
//! `debug_assert`s would turn adversarial (checksum-forged) coordinates
//! into debug-build panics.

use crate::wire::{Dec, Enc};
use gsr_core::methods::SpaInfoParts;
use gsr_geo::Rect;
use gsr_index::grid::CellId;

/// Encodes a rectangle as four `f64` extrema.
pub fn enc_rect(e: &mut Enc, r: &Rect) {
    e.f64(r.min_x);
    e.f64(r.min_y);
    e.f64(r.max_x);
    e.f64(r.max_y);
}

/// Decodes a rectangle.
pub fn dec_rect(d: &mut Dec, what: &str) -> Result<Rect, String> {
    let min_x = d.f64(what)?;
    let min_y = d.f64(what)?;
    let max_x = d.f64(what)?;
    let max_y = d.f64(what)?;
    Ok(Rect { min_x, min_y, max_x, max_y })
}

/// Encodes a GeoReach SPA-info table (count + tagged entries).
pub fn enc_spa_info(e: &mut Enc, info: &[SpaInfoParts]) {
    e.u64(info.len() as u64);
    for i in info {
        match i {
            SpaInfoParts::B(false) => e.u8(0),
            SpaInfoParts::B(true) => e.u8(1),
            SpaInfoParts::R(r) => {
                e.u8(2);
                enc_rect(e, r);
            }
            SpaInfoParts::G(cells) => {
                e.u8(3);
                e.u64(cells.len() as u64);
                for c in cells {
                    enc_cell(e, c);
                }
            }
        }
    }
}

/// Decodes a GeoReach SPA-info table.
pub fn dec_spa_info(d: &mut Dec, what: &str) -> Result<Vec<SpaInfoParts>, String> {
    let n = d.count(1, what)?;
    let mut info = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = d.u8(what)?;
        info.push(match kind {
            0 => SpaInfoParts::B(false),
            1 => SpaInfoParts::B(true),
            2 => SpaInfoParts::R(dec_rect(d, what)?),
            3 => {
                let c = d.count(9, what)?;
                let mut cells = Vec::with_capacity(c);
                for _ in 0..c {
                    cells.push(dec_cell(d, what)?);
                }
                SpaInfoParts::G(cells)
            }
            k => return Err(format!("unknown {what} kind {k}")),
        });
    }
    Ok(info)
}

/// Encodes a grid cell id.
fn enc_cell(e: &mut Enc, c: &CellId) {
    e.u8(c.level);
    e.u32(c.ix);
    e.u32(c.iy);
}

/// Decodes a grid cell id.
fn dec_cell(d: &mut Dec, what: &str) -> Result<CellId, String> {
    let level = d.u8(what)?;
    let ix = d.u32(what)?;
    let iy = d.u32(what)?;
    Ok(CellId { level, ix, iy })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_payload_is_an_error() {
        let info = vec![
            SpaInfoParts::B(true),
            SpaInfoParts::R(Rect { min_x: 0.0, min_y: 1.0, max_x: 2.0, max_y: 3.0 }),
            SpaInfoParts::G(vec![CellId { level: 2, ix: 1, iy: 3 }]),
        ];
        let mut e = Enc::new();
        enc_spa_info(&mut e, &info);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(dec_spa_info(&mut d, "spa-info").unwrap(), info);
        d.finish("spa-info").unwrap();
        for cut in [0, 1, 8, bytes.len() - 1] {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(dec_spa_info(&mut d, "spa-info").is_err(), "cut at {cut} must fail");
        }
    }
}
