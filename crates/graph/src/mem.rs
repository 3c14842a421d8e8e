//! Heap-footprint accounting shared by every index in the workspace.
//!
//! The paper's Table 4 compares methods by index size; `repro table4`, the
//! server `STATS` reply and `benchmark/` report the same numbers. Each
//! index implements [`HeapBytes`] by summing the footprints of its owned
//! buffers, so the accounting stays honest as layouts change.

/// Number of bytes a value owns on the heap (excluding `size_of::<Self>()`
/// itself, which lives wherever the value does).
///
/// Implementations count capacity actually reachable from the value:
/// `Vec`s report `len * size_of::<T>()` (the retained payload — spare
/// capacity is a transient of construction and is not part of the layout
/// contract being measured).
pub trait HeapBytes {
    /// Heap bytes owned by `self`.
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: HeapBytes + ?Sized> HeapBytes for &T {
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

impl<T: HeapBytes + ?Sized> HeapBytes for std::sync::Arc<T> {
    /// An `Arc` shares its payload; for index accounting we attribute the
    /// full payload to each handle: the honest answer to "what does this
    /// index keep alive?". Indexes do share sections — clones, and the
    /// tiles of a shard set, which hold one `comp_of` and one set of labels
    /// — and whoever sums over such indexes counts a buffer once by its
    /// identity (`gsr_core::ShardedIndex::index_bytes`).
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

impl HeapBytes for crate::DiGraph {
    fn heap_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_counts_len_not_capacity() {
        let mut v: Vec<u32> = Vec::with_capacity(100);
        v.extend([1, 2, 3]);
        assert_eq!(HeapBytes::heap_bytes(&v), 12);
    }

    #[test]
    fn arc_reports_payload() {
        let a = std::sync::Arc::new(vec![0u64; 4]);
        assert_eq!(a.heap_bytes(), 32);
    }
}
