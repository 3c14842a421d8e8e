//! The column declarations, held to what is derived from them.
//!
//! Every method lists its persistent columns once (`gsr_graph::Columns`);
//! the snapshot writer, the loader, `index_bytes` and the shard accounting
//! all read that list. These tests read it too: the **accounting** test
//! checks that the reported size and the written file are exactly what the
//! list says, and the **corruption drill** damages every listed column in
//! every way a file can be wrong while still framing correctly, and expects
//! a typed error or the right answer — never a panic, never a different
//! boolean.

use gsr_core::{
    paper_example, GeosocialNetwork, GsrError, PreparedNetwork, QueryCost, RangeReachIndex,
};
use gsr_datagen::faults::ScratchDir;
use gsr_datagen::NetworkSpec;
use gsr_geo::Point;
use gsr_graph::{Column, ColumnList};
use gsr_store::{LoadOptions, SnapshotIndex};
use gsr_tests::{all_snapshots, frame_sections, section_offsets, snapshot_sections, Section};

fn columns_of(index: &dyn RangeReachIndex) -> ColumnList<'_> {
    index.columns().unwrap_or_else(|| panic!("{} declares its columns", index.name()))
}

fn saved(index: &SnapshotIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, index).expect("save");
    bytes
}

/// `index_bytes`, the snapshot's length and the uncounted tags, as the
/// column list of `index` has them.
fn accounted(index: &dyn RangeReachIndex) -> (usize, usize, Vec<u16>) {
    let list = columns_of(index);
    let counted: usize = list.cols.iter().filter(|c| c.counted).map(|c| c.bytes.len()).sum();
    // The file: header, a directory entry per section (the columns and
    // META), then META — the method tag and the scalars — and every column
    // at the next 64-byte boundary.
    let meta = 1 + list.meta.into_bytes().len();
    let dir_end = 24 + 24 * (list.cols.len() + 1);
    let payloads = std::iter::once(meta).chain(list.cols.iter().map(|c| c.bytes.len()));
    let file = payloads.fold(dir_end, |end, len| end.div_ceil(64) * 64 + len);
    let uncounted = list.cols.iter().filter(|c| !c.counted).map(|c| c.tag).collect();
    assert_eq!(list.extra, 0, "{}: bytes outside any column", index.name());
    (counted, file, uncounted)
}

/// Built, loaded mapped and loaded owned, every method reports the bytes of
/// its counted columns — all six, GeoReach's SPA table being columns like
/// the rest — and writes a file of exactly its columns; and the columns
/// left out of the count are the five network-derived ones, nothing else.
#[test]
fn index_bytes_and_file_length_are_what_the_columns_say() {
    const COMP_OF: u16 = 0x10;
    const MEMBER_CSR: [u16; 2] = [0x11, 0x12];
    let dir = ScratchDir::new("gsr_columns_accounting").unwrap();
    let prep = PreparedNetwork::new(NetworkSpec::weeplaces(0.05).generate());
    for (name, built) in all_snapshots(&prep) {
        let (bytes, file_len, uncounted) = accounted(&built);
        assert_eq!(built.index_bytes(), bytes, "{name}: index_bytes");
        let file = saved(&built);
        assert_eq!(file.len(), file_len, "{name}: snapshot length");
        let expected: Vec<u16> = match &built {
            SnapshotIndex::SpaReachBfl(_) | SnapshotIndex::SpaReachInt(_) => {
                [&[COMP_OF][..], &MEMBER_CSR].concat()
            }
            SnapshotIndex::GeoReach(_) => MEMBER_CSR.to_vec(),
            _ => Vec::new(),
        };
        assert_eq!(uncounted, expected, "{name}: uncounted columns");

        let path = dir.path().join(format!("{name}.snap"));
        std::fs::write(&path, &file).unwrap();
        let (mapped, info) = gsr_store::load_from_path_with(&path, LoadOptions::default()).unwrap();
        let owned = gsr_store::load(&mut file.as_slice()).unwrap();
        assert_eq!(info.file_bytes as usize, file_len);
        for (how, loaded) in [("mapped", &mapped), ("owned", &owned)] {
            assert_eq!(accounted(loaded), (bytes, file_len, expected.clone()), "{name}, {how}");
            assert_eq!(loaded.index_bytes(), bytes, "{name}, {how}: index_bytes");
            assert_eq!(saved(loaded).len(), file_len, "{name}, {how}: re-saved length");
        }
    }
}

/// The byte count of narrowing (ROADMAP item 9), from column lengths. The
/// R-tree's box columns are tags `0xC0`–`0xFF` (DESIGN.md, "Snapshot
/// layout"): `+ 0x10` marks an entry column (else a node column), `+ 0x08`
/// an upper bound, `+ 0x20` a `u32` column. Format v6 stored every node box
/// as one `Aabb<N>` of `f64`s and every entry column as `f64`s; against
/// that layout, 3DReach saves 4 B per entry (its z column) and 3DReach-REV
/// 8 B per segment (both z bounds), each 8 B per node (the node z bounds),
/// and every other method keeps its size to the byte.
#[test]
fn narrowed_trees_save_exactly_their_u32_columns() {
    const VALUES: u16 = 0x24;
    let prep = PreparedNetwork::new(NetworkSpec::weeplaces(0.3).generate());
    for (name, built) in all_snapshots(&prep) {
        let list = columns_of(&built);
        let len = |c: &Column<'_>| c.bytes.len() / c.elem as usize;
        let boxes: Vec<&Column<'_>> = list.cols.iter().filter(|c| c.tag >= 0xC0).collect();
        let node_lo: Vec<&&Column<'_>> = boxes.iter().filter(|c| c.tag & 0x18 == 0).collect();
        let (dims, nodes) = (node_lo.len(), node_lo.first().map_or(0, |c| len(c)));
        let entries = list.cols.iter().find(|c| c.tag == VALUES).map_or(0, len);
        let entry_cols = boxes.iter().filter(|c| c.tag & 0x10 != 0);
        let box_bytes: usize = boxes.iter().map(|c| c.bytes.len()).sum();
        let v6 = list.counted_bytes() - box_bytes
            + nodes * 16 * dims
            + entry_cols.map(|c| len(c) * 8).sum::<usize>();
        let saved = match &built {
            SnapshotIndex::ThreeDReach(_) => 4 * entries + 8 * nodes,
            SnapshotIndex::ThreeDReachRev(_) => 8 * entries + 8 * nodes,
            _ => 0,
        };
        assert_eq!(built.index_bytes(), v6 - saved, "{name}: {entries} entries, {nodes} nodes");
        if matches!(built, SnapshotIndex::ThreeDReach(_) | SnapshotIndex::ThreeDReachRev(_)) {
            assert!(entries > 1000 && nodes > 50, "{name}: {entries} entries, {nodes} nodes");
        }
    }
}

/// A typed error, or what the built index says: the only outcomes a probe
/// of a loaded index may have.
type Probed = Result<(bool, QueryCost), GsrError>;

fn probe_all(prep: &PreparedNetwork, index: &dyn RangeReachIndex) -> Vec<Probed> {
    let vertices = prep.network().graph().vertices();
    let probes =
        vertices.flat_map(|v| paper_example::probe_regions().into_iter().map(move |r| (v, r)));
    probes.map(|(v, r)| index.try_query_with_cost(v, &r)).collect()
}

/// Loads `file` with and without the CRC pass. Both must be a typed load
/// error or an index that, on every probe, answers as `expected` (answer
/// and `QueryCost`) or with a typed error.
fn expect_error_or_agreement(
    file: &[u8],
    prep: &PreparedNetwork,
    expected: &[Probed],
    context: &str,
) {
    for trust in [false, true] {
        match gsr_store::load_with(&mut &file[..], LoadOptions { trust }) {
            Err(GsrError::Load(msg)) => assert!(!msg.is_empty(), "{context}"),
            Err(other) => panic!("{context} (trust {trust}): non-load error {other:?}"),
            Ok(loaded) => {
                for (got, want) in probe_all(prep, &loaded).iter().zip(expected) {
                    assert!(
                        got.is_err() || got == want,
                        "{context} (trust {trust}): loaded and answers {got:?}, built {want:?}"
                    );
                }
            }
        }
    }
}

/// The running example with every point moved by a quarter: its R-trees
/// keep `f64` node boxes, where the example's own integer-bounded ones all
/// narrow to `u32`s.
fn shifted_example() -> PreparedNetwork {
    let shift = |p: Point| Point::new(p.x + 0.25, p.y + 0.25);
    let points = paper_example::points().into_iter().map(|p| p.map(shift)).collect();
    let graph = paper_example::network().graph().clone();
    PreparedNetwork::new(GeosocialNetwork::new(graph, points).expect("valid example"))
}

/// The drill. Cases (a)–(c) reframe the file with true CRCs, so only the
/// structures' own validation can object; cases (d) and (e) edit the file in
/// place.
#[test]
fn every_column_of_every_method_survives_the_corruption_drill() {
    const META: u16 = 0x01;
    const UNUSED: u16 = 0x7FFF;
    let mut drilled = std::collections::BTreeSet::new();
    for prep in [paper_example::prepared(), paper_example::cyclic_prepared(), shifted_example()] {
        for (name, built) in all_snapshots(&prep) {
            let file = saved(&built);
            let version = u32::from_le_bytes(file[8..12].try_into().unwrap());
            let sections = snapshot_sections(&file);
            assert_eq!(frame_sections(version, &sections), file, "{name}: the drill's own framing");
            let list = columns_of(&built);
            let declared: Vec<&Column<'_>> = list.cols.iter().collect();
            assert_eq!(
                sections.iter().map(|s| s.0).collect::<Vec<_>>(),
                std::iter::once(META).chain(declared.iter().map(|c| c.tag)).collect::<Vec<_>>(),
                "{name}: the file holds META and the declared columns, in order"
            );
            assert!(sections.iter().all(|s| s.0 != UNUSED));
            let expected = probe_all(&prep, &built);
            assert!(expected.iter().all(Result::is_ok));

            // META is drilled with the columns: it is a section like them.
            for (at, (tag, elem, payload)) in sections.iter().enumerate() {
                drilled.insert(*tag);
                let context = |case: &str| format!("{name}, section 0x{tag:02x}: {case}");
                let reframed = |edit: &dyn Fn(&mut Vec<Section>)| {
                    let mut edited = sections.clone();
                    edit(&mut edited);
                    frame_sections(version, &edited)
                };
                // (a) the last element gone.
                if !payload.is_empty() {
                    let short = reframed(&|s| {
                        let keep = s[at].2.len() - *elem as usize;
                        s[at].2.truncate(keep);
                    });
                    expect_error_or_agreement(
                        &short,
                        &prep,
                        &expected,
                        &context("last element dropped"),
                    );
                }
                // (b) the section gone.
                let without = reframed(&|s| drop(s.remove(at)));
                expect_error_or_agreement(&without, &prep, &expected, &context("deleted"));
                // (c) the section twice, once under a tag nobody claims.
                let twice = reframed(&|s| s.push((UNUSED, *elem, payload.clone())));
                // Nobody claims the copy, so nobody checksums it: a bit
                // flipped in it changes nothing — the file is refused for
                // holding it.
                let mut twice_flipped = twice.clone();
                if let (Some(last), false) = (twice_flipped.last_mut(), payload.is_empty()) {
                    *last ^= 0x01; // the copy is the file's last section
                }
                for file in [&twice, &twice_flipped] {
                    match gsr_store::load(&mut file.as_slice()) {
                        Err(GsrError::Load(msg)) => {
                            assert!(msg.contains("unexpected section"), "{msg}")
                        }
                        other => panic!("{}: {:?}", context("duplicated"), other.map(|i| i.name())),
                    }
                }
                // (d) one bit flipped, the stored CRC left as it was: the
                // checked load says so; the trusting load is on its own and
                // may answer anything, but answers.
                if !payload.is_empty() {
                    let at_byte = section_offsets(&sections)[at];
                    let mut flipped = file.clone();
                    flipped[at_byte + payload.len() / 2] ^= 0x10;
                    match gsr_store::load(&mut flipped.as_slice()) {
                        Err(GsrError::Load(msg)) => {
                            assert!(msg.contains("crc mismatch"), "{}: {msg}", context("bit flip"))
                        }
                        other => panic!("{}: {:?}", context("bit flip"), other.map(|i| i.name())),
                    }
                    match gsr_store::load_with(&mut flipped.as_slice(), LoadOptions { trust: true })
                    {
                        Ok(loaded) => drop(probe_all(&prep, &loaded)),
                        Err(GsrError::Load(_)) => {}
                        Err(other) => panic!("{}: {other:?}", context("trusted bit flip")),
                    }
                }
                // (e) the payload as written under a CRC that is not its own:
                // the checked load names the section when it is claimed; the
                // trusting load never looks, and serves the built index.
                let mut stale = file.clone();
                stale[24 + 24 * at + 4] ^= 0x01;
                match gsr_store::load(&mut stale.as_slice()) {
                    Err(GsrError::Load(msg)) => assert!(
                        msg.contains(&format!("section 0x{tag:02x}: crc mismatch")),
                        "{}: {msg}",
                        context("stale crc")
                    ),
                    other => panic!("{}: {:?}", context("stale crc"), other.map(|i| i.name())),
                }
                let trusted =
                    gsr_store::load_with(&mut stale.as_slice(), LoadOptions { trust: true })
                        .unwrap_or_else(|e| panic!("{}: {e}", context("stale crc, trusted")));
                assert_eq!(
                    probe_all(&prep, &trusted),
                    expected,
                    "{}",
                    context("stale crc, trusted")
                );
            }
        }
    }
    // The R-tree's box columns in both storages, node and entry, were among
    // them: `0xC0`–`0xDF` as `f64`s, `0xE0`–`0xFF` as `u32`s.
    for (first, what) in
        [(0xC0, "f64 node"), (0xD0, "f64 entry"), (0xE0, "u32 node"), (0xF0, "u32 entry")]
    {
        assert!(drilled.range(first..first + 0x10).next().is_some(), "no {what} column drilled");
    }
}
