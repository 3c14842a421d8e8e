//! Degree statistics and the out-degree buckets of the paper's workloads.

use crate::{DiGraph, VertexId};

/// The out-degree buckets used to select query vertices in Section 6.1:
/// `[1-49]`, `[50-99]`, `[100-149]`, `[150-199]`, `[200-..]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegreeBucket {
    /// Smallest out-degree included.
    pub lo: u32,
    /// Largest out-degree included (`u32::MAX` for the open-ended bucket).
    pub hi: u32,
}

impl DegreeBucket {
    /// The five buckets of the paper, in order. The third (`[100-149]`) is
    /// the paper's default.
    pub const PAPER_BUCKETS: [DegreeBucket; 5] = [
        DegreeBucket { lo: 1, hi: 49 },
        DegreeBucket { lo: 50, hi: 99 },
        DegreeBucket { lo: 100, hi: 149 },
        DegreeBucket { lo: 150, hi: 199 },
        DegreeBucket { lo: 200, hi: u32::MAX },
    ];

    /// Index of the paper's default bucket (`[100-149]`) in
    /// [`DegreeBucket::PAPER_BUCKETS`].
    pub const DEFAULT_INDEX: usize = 2;

    /// Whether `degree` falls inside this bucket.
    #[inline]
    pub fn contains(&self, degree: u32) -> bool {
        degree >= self.lo && degree <= self.hi
    }

    /// Human-readable label, e.g. `"100-149"` or `"200+"`.
    pub fn label(&self) -> String {
        if self.hi == u32::MAX {
            format!("{}+", self.lo)
        } else {
            format!("{}-{}", self.lo, self.hi)
        }
    }
}

/// All vertices whose out-degree falls inside `bucket`. The paper samples
/// query vertices uniformly from such pools.
pub fn vertices_in_bucket(g: &DiGraph, bucket: DegreeBucket) -> Vec<VertexId> {
    g.vertices().filter(|&v| bucket.contains(g.out_degree(v) as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn bucket_membership() {
        let b = DegreeBucket::PAPER_BUCKETS[0];
        assert!(b.contains(1) && b.contains(49));
        assert!(!b.contains(0) && !b.contains(50));
        let open = DegreeBucket::PAPER_BUCKETS[4];
        assert!(open.contains(200) && open.contains(1_000_000));
        assert_eq!(open.label(), "200+");
        assert_eq!(b.label(), "1-49");
    }

    #[test]
    fn buckets_partition_positive_degrees() {
        for d in 1..500u32 {
            let hits = DegreeBucket::PAPER_BUCKETS.iter().filter(|b| b.contains(d)).count();
            assert_eq!(hits, 1, "degree {d} must fall in exactly one bucket");
        }
    }

    #[test]
    fn bucket_pool() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let pool = vertices_in_bucket(&g, DegreeBucket { lo: 1, hi: 3 });
        assert_eq!(pool, vec![1]);
        let pool4 = vertices_in_bucket(&g, DegreeBucket { lo: 4, hi: 4 });
        assert_eq!(pool4, vec![0]);
    }
}
