//! The method table: the one place the paper's six methods are declared.
//! Every list of methods — CLI keys, snapshot tags, `repro` columns, test
//! rows — is [`Method::ALL`] or a subset, and every build or load goes
//! through [`Method::build`] / [`Method::load`].

use super::{GeoReach, SocReach, SpaReachBfl, SpaReachInt, ThreeDReach, ThreeDReachRev};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::Rect;
use gsr_graph::{ColumnList, Columns, Source, VertexId};

/// One of the six evaluation methods of Section 6, in the paper's
/// presentation order. The discriminant is the method's snapshot tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Method {
    /// Spatial-first: 2-D R-tree, then BFL reachability (Section 2.2.1).
    SpaReachBfl = 1,
    /// Spatial-first: 2-D R-tree, then interval labeling (Section 2.2.1).
    SpaReachInt = 2,
    /// SPA-graph traversal, the prior state of the art (Section 2.2.2).
    GeoReach = 3,
    /// Social-first: interval labeling, then a point scan (Section 4.1).
    SocReach = 4,
    /// 3-D transformation: one cuboid query per label (Section 4.2).
    ThreeDReach = 5,
    /// 3-D transformation, reversed labeling: one plane query (Section 4.2).
    ThreeDReachRev = 6,
}

impl Method {
    /// Every method, in presentation order.
    pub const ALL: [Method; 6] = [
        Method::SpaReachBfl,
        Method::SpaReachInt,
        Method::GeoReach,
        Method::SocReach,
        Method::ThreeDReach,
        Method::ThreeDReachRev,
    ];

    /// The command-line key (`"3dreach-rev"`).
    pub fn key(self) -> &'static str {
        self.key_and_name().0
    }

    /// The display name, as the built index reports it (`"3DReach-REV"`).
    pub fn name(self) -> &'static str {
        self.key_and_name().1
    }

    fn key_and_name(self) -> (&'static str, &'static str) {
        match self {
            Method::SpaReachBfl => ("spareach-bfl", "SpaReach-BFL"),
            Method::SpaReachInt => ("spareach-int", "SpaReach-INT"),
            Method::GeoReach => ("georeach", "GeoReach"),
            Method::SocReach => ("socreach", "SocReach"),
            Method::ThreeDReach => ("3dreach", "3DReach"),
            Method::ThreeDReachRev => ("3dreach-rev", "3DReach-REV"),
        }
    }

    /// The tag a snapshot's `META` section opens with.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The method with command-line key `key`.
    pub fn from_key(key: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.key() == key)
    }

    /// The method with snapshot tag `tag`.
    pub fn from_tag(tag: u8) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.tag() == tag)
    }

    /// Whether the method has an MBR-based SCC variant. Section 5 applies
    /// only to methods with spatial indexing: GeoReach is non-MBR by design
    /// and SocReach has no spatial index.
    pub fn supports_mbr(self) -> bool {
        !matches!(self, Method::GeoReach | Method::SocReach)
    }

    /// The SCC policies the method is built under: both where it
    /// [supports the MBR variant](Method::supports_mbr), the default alone
    /// otherwise.
    pub fn policies(self) -> &'static [SccSpatialPolicy] {
        const BOTH: [SccSpatialPolicy; 2] = [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr];
        &BOTH[..if self.supports_mbr() { 2 } else { 1 }]
    }

    /// Builds the method's index over `prep` with `threads` workers (`0` =
    /// machine parallelism). The built index is identical at any thread
    /// count. GeoReach and SocReach have no threaded build, and ignore
    /// `policy` as well.
    pub fn build(
        self,
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        threads: usize,
    ) -> SnapshotIndex {
        use SnapshotIndex as S;
        match self {
            Method::SpaReachBfl => {
                S::SpaReachBfl(SpaReachBfl::build_threaded(prep, policy, threads))
            }
            Method::SpaReachInt => {
                S::SpaReachInt(SpaReachInt::build_threaded(prep, policy, threads))
            }
            Method::GeoReach => S::GeoReach(GeoReach::build(prep)),
            Method::SocReach => S::SocReach(SocReach::build(prep)),
            Method::ThreeDReach => {
                S::ThreeDReach(ThreeDReach::build_threaded(prep, policy, threads))
            }
            Method::ThreeDReachRev => {
                S::ThreeDReachRev(ThreeDReachRev::build_threaded(prep, policy, threads))
            }
        }
    }

    /// Reads the method's index from `src`: what [`SnapshotIndex::column_list`]
    /// declared, validated.
    pub fn load<S: Source>(self, src: &mut S) -> Result<SnapshotIndex, String> {
        match self {
            Method::SpaReachBfl => SpaReachBfl::load(src).map(SnapshotIndex::SpaReachBfl),
            Method::SpaReachInt => SpaReachInt::load(src).map(SnapshotIndex::SpaReachInt),
            Method::GeoReach => GeoReach::load(src).map(SnapshotIndex::GeoReach),
            Method::SocReach => SocReach::load(src).map(SnapshotIndex::SocReach),
            Method::ThreeDReach => ThreeDReach::load(src).map(SnapshotIndex::ThreeDReach),
            Method::ThreeDReachRev => ThreeDReachRev::load(src).map(SnapshotIndex::ThreeDReachRev),
        }
    }
}

/// A built index of any of the six methods, as [`Method::build`] returns it
/// and a snapshot holds it. Implements [`RangeReachIndex`] by delegation, so
/// it drops into every consumer of the trait (the batch executor, the query
/// server) without knowing which method it holds.
#[derive(Debug, Clone)]
pub enum SnapshotIndex {
    /// SpaReach with the BFL reachability back-end.
    SpaReachBfl(SpaReachBfl),
    /// SpaReach with the interval-labeling back-end.
    SpaReachInt(SpaReachInt),
    /// The GeoReach SPA-graph.
    GeoReach(GeoReach),
    /// The social-first SocReach evaluator.
    SocReach(SocReach),
    /// The forward 3-D transformation.
    ThreeDReach(ThreeDReach),
    /// The reversed (segment-based) 3-D transformation.
    ThreeDReachRev(ThreeDReachRev),
}

impl SnapshotIndex {
    /// The method of the held index.
    pub fn method(&self) -> Method {
        match self {
            SnapshotIndex::SpaReachBfl(_) => Method::SpaReachBfl,
            SnapshotIndex::SpaReachInt(_) => Method::SpaReachInt,
            SnapshotIndex::GeoReach(_) => Method::GeoReach,
            SnapshotIndex::SocReach(_) => Method::SocReach,
            SnapshotIndex::ThreeDReach(_) => Method::ThreeDReach,
            SnapshotIndex::ThreeDReachRev(_) => Method::ThreeDReachRev,
        }
    }

    /// The columns the held index declares: what its snapshot holds.
    pub fn column_list(&self) -> ColumnList<'_> {
        match self {
            SnapshotIndex::SpaReachBfl(i) => ColumnList::of(i),
            SnapshotIndex::SpaReachInt(i) => ColumnList::of(i),
            SnapshotIndex::GeoReach(i) => ColumnList::of(i),
            SnapshotIndex::SocReach(i) => ColumnList::of(i),
            SnapshotIndex::ThreeDReach(i) => ColumnList::of(i),
            SnapshotIndex::ThreeDReachRev(i) => ColumnList::of(i),
        }
    }

    fn as_index(&self) -> &dyn RangeReachIndex {
        match self {
            SnapshotIndex::SpaReachBfl(i) => i,
            SnapshotIndex::SpaReachInt(i) => i,
            SnapshotIndex::GeoReach(i) => i,
            SnapshotIndex::SocReach(i) => i,
            SnapshotIndex::ThreeDReach(i) => i,
            SnapshotIndex::ThreeDReachRev(i) => i,
        }
    }
}

impl RangeReachIndex for SnapshotIndex {
    fn num_vertices(&self) -> usize {
        self.as_index().num_vertices()
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.as_index().query_unchecked(v, region)
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        self.as_index().query_with_cost_unchecked(v, region)
    }

    fn index_bytes(&self) -> usize {
        self.as_index().index_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(self.column_list())
    }

    fn name(&self) -> &'static str {
        self.as_index().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use std::collections::HashSet;

    /// The table is a bijection between methods, keys, names and tags, and
    /// each method builds the index it names.
    #[test]
    fn keys_names_and_tags_are_unique_and_round_trip() {
        let count =
            |f: fn(Method) -> String| Method::ALL.map(f).into_iter().collect::<HashSet<_>>().len();
        assert_eq!(count(|m| m.key().to_string()), 6);
        assert_eq!(count(|m| m.name().to_string()), 6);
        assert_eq!(count(|m| m.tag().to_string()), 6);
        let prep = paper_example::cyclic_prepared();
        for m in Method::ALL {
            assert_eq!(Method::from_key(m.key()), Some(m));
            assert_eq!(Method::from_tag(m.tag()), Some(m));
            for &policy in m.policies() {
                let built = m.build(&prep, policy, 1);
                assert_eq!(built.name(), m.name());
                assert_eq!(built.method(), m);
            }
        }
        assert_eq!(Method::from_key("all"), None);
        assert_eq!(Method::from_tag(0), None);
        assert_eq!(Method::from_tag(7), None);
    }
}
