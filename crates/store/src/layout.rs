//! Row-major chunk layouts.
//!
//! A [`ChunkLayout`] partitions the index space of an array with
//! extents `dims` into a grid of rectangular chunks with (at most)
//! extents `chunk` each. Chunks are numbered row-major over the grid;
//! chunks on the trailing edge of each dimension are *clipped* to the
//! array bounds, so a layout tiles the array exactly with no padding.
//!
//! Because both the grid and the elements inside each chunk use
//! row-major order, a layout built by [`ChunkLayout::row_major`] —
//! which greedily assigns the chunk budget to the *innermost*
//! dimensions first — produces chunks that are contiguous runs of the
//! underlying row-major element order, which is exactly the access
//! pattern a hyperslab reader serves fastest.

use crate::error::StoreError;

/// The location of one element: which chunk it lives in, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAddr {
    /// Row-major chunk number within the grid.
    pub chunk: u64,
    /// Row-major element offset *within* the (clipped) chunk.
    pub offset: u64,
}

/// A row-major partition of an index space into rectangular chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLayout {
    dims: Vec<u64>,
    chunk: Vec<u64>,
    grid: Vec<u64>,
}

impl ChunkLayout {
    /// Build a layout for an array with extents `dims` tiled by chunks
    /// with extents `chunk`.
    ///
    /// `dims` and `chunk` must have the same non-zero rank, every chunk
    /// extent must be ≥ 1, and the total element/grid counts must not
    /// overflow `u64`. Array extents of zero are allowed (the grid is
    /// empty along that dimension).
    pub fn new(dims: Vec<u64>, chunk: Vec<u64>) -> Result<ChunkLayout, StoreError> {
        if dims.is_empty() {
            return Err(StoreError::Shape("layout rank must be at least 1".into()));
        }
        if dims.len() != chunk.len() {
            return Err(StoreError::Shape(format!(
                "layout rank mismatch: {} dims vs {} chunk extents",
                dims.len(),
                chunk.len()
            )));
        }
        if chunk.contains(&0) {
            return Err(StoreError::Shape("chunk extents must all be at least 1".into()));
        }
        checked_product(&dims)
            .ok_or_else(|| StoreError::Shape("array element count overflows u64".into()))?;
        checked_product(&chunk)
            .ok_or_else(|| StoreError::Shape("chunk element count overflows u64".into()))?;
        let grid: Vec<u64> = dims
            .iter()
            .zip(&chunk)
            .map(|(&d, &c)| if d == 0 { 0 } else { d.div_ceil(c) })
            .collect();
        checked_product(&grid)
            .ok_or_else(|| StoreError::Shape("chunk grid size overflows u64".into()))?;
        Ok(ChunkLayout { dims, chunk, grid })
    }

    /// Build a layout whose chunks hold about `target_elems` elements,
    /// assigned greedily to the innermost (fastest-varying) dimensions
    /// so each chunk is a contiguous run of the row-major element
    /// order.
    pub fn row_major(dims: Vec<u64>, target_elems: u64) -> Result<ChunkLayout, StoreError> {
        let mut budget = target_elems.max(1);
        let mut chunk = vec![1u64; dims.len()];
        for (j, &d) in dims.iter().enumerate().rev() {
            let extent = d.max(1);
            chunk[j] = extent.min(budget).max(1);
            budget /= extent.max(1);
            if budget == 0 {
                budget = 1;
            }
        }
        ChunkLayout::new(dims, chunk)
    }

    /// Array extents.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Nominal (unclipped) chunk extents.
    pub fn chunk_dims(&self) -> &[u64] {
        &self.chunk
    }

    /// Grid extents: number of chunks along each dimension.
    pub fn grid_dims(&self) -> &[u64] {
        &self.grid
    }

    /// Total number of elements in the array.
    pub fn total_elems(&self) -> u64 {
        checked_product(&self.dims).expect("validated in new")
    }

    /// Total number of chunks in the grid.
    pub fn num_chunks(&self) -> u64 {
        checked_product(&self.grid).expect("validated in new")
    }

    /// Locate the element at multidimensional index `idx`, or `None`
    /// if the index is out of bounds (including wrong rank).
    pub fn locate(&self, idx: &[u64]) -> Option<ChunkAddr> {
        if idx.len() != self.dims.len() {
            return None;
        }
        if idx.iter().zip(&self.dims).any(|(&i, &d)| i >= d) {
            return None;
        }
        let mut chunk = 0u64;
        let mut offset = 0u64;
        for (j, &i) in idx.iter().enumerate() {
            let (cj, oj, count) = self.split(j, i);
            chunk = chunk * self.grid[j] + cj;
            offset = offset * count + oj;
        }
        Some(ChunkAddr { chunk, offset })
    }

    /// Locate the element at row-major linear offset `off`, or `None`
    /// past the end. Arithmetic only: the multidimensional index is
    /// never built, so a resident element costs no allocation.
    pub fn locate_linear(&self, off: u64) -> Option<ChunkAddr> {
        if off >= self.total_elems() {
            return None;
        }
        // Innermost dimension first: peel one index digit per step and
        // accumulate both row-major numbers from their low end.
        let mut rem = off;
        let (mut chunk, mut chunk_stride) = (0u64, 1u64);
        let (mut offset, mut offset_stride) = (0u64, 1u64);
        for j in (0..self.dims.len()).rev() {
            let (cj, oj, count) = self.split(j, rem % self.dims[j]);
            rem /= self.dims[j];
            chunk += cj * chunk_stride;
            offset += oj * offset_stride;
            chunk_stride *= self.grid[j];
            offset_stride *= count;
        }
        Some(ChunkAddr { chunk, offset })
    }

    /// Split in-bounds index `i` on dimension `j` into its grid
    /// coordinate, its offset inside the chunk, and that chunk's
    /// clipped extent.
    #[inline(always)]
    fn split(&self, j: usize, i: u64) -> (u64, u64, u64) {
        let c = self.chunk[j];
        let cj = i / c;
        (cj, i % c, c.min(self.dims[j] - cj * c))
    }

    /// Grid coordinates of chunk `id`, or `None` if `id` is out of
    /// range.
    pub fn chunk_coords(&self, id: u64) -> Option<Vec<u64>> {
        if id >= self.num_chunks() {
            return None;
        }
        let mut rem = id;
        let mut coords = vec![0u64; self.grid.len()];
        for j in (0..self.grid.len()).rev() {
            coords[j] = rem % self.grid[j];
            rem /= self.grid[j];
        }
        Some(coords)
    }

    /// The hyperslab `(start, count)` covered by chunk `id`, clipped to
    /// the array bounds, or `None` if `id` is out of range.
    pub fn chunk_bounds(&self, id: u64) -> Option<(Vec<u64>, Vec<u64>)> {
        let coords = self.chunk_coords(id)?;
        let mut start = vec![0u64; coords.len()];
        let mut count = vec![0u64; coords.len()];
        for j in 0..coords.len() {
            start[j] = coords[j] * self.chunk[j];
            count[j] = self.chunk[j].min(self.dims[j] - start[j]);
        }
        Some((start, count))
    }

    /// Number of elements in (clipped) chunk `id`, or `None` if out of
    /// range.
    pub fn chunk_len(&self, id: u64) -> Option<u64> {
        let (_, count) = self.chunk_bounds(id)?;
        checked_product(&count)
    }
}

/// Product of extents, or `None` on overflow.
pub(crate) fn checked_product(extents: &[u64]) -> Option<u64> {
    extents.iter().try_fold(1u64, |acc, &e| acc.checked_mul(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_assigns_inner_dims_first() {
        let l = ChunkLayout::row_major(vec![100, 10, 10], 200).unwrap();
        // 200 elements: the inner 10×10 face (100 elems) is fully
        // covered, leaving a budget of 2 rows of the outer dimension.
        assert_eq!(l.chunk_dims(), &[2, 10, 10]);
        assert_eq!(l.grid_dims(), &[50, 1, 1]);
    }

    #[test]
    fn locate_matches_bounds_on_edge_chunks() {
        // 7 elements chunked by 3 → chunks of len 3, 3, 1.
        let l = ChunkLayout::new(vec![7], vec![3]).unwrap();
        assert_eq!(l.num_chunks(), 3);
        assert_eq!(l.chunk_len(2), Some(1));
        assert_eq!(l.locate(&[6]), Some(ChunkAddr { chunk: 2, offset: 0 }));
        assert_eq!(l.locate(&[7]), None);
        assert_eq!(l.locate(&[0, 0]), None); // wrong rank
    }

    #[test]
    fn zero_extent_dimension_yields_empty_grid() {
        let l = ChunkLayout::new(vec![4, 0], vec![2, 2]).unwrap();
        assert_eq!(l.num_chunks(), 0);
        assert_eq!(l.total_elems(), 0);
        assert_eq!(l.locate(&[0, 0]), None);
        assert_eq!(l.chunk_bounds(0), None);
    }

    #[test]
    fn offsets_use_clipped_extents() {
        // 2D array 4×5 chunked 3×3: chunk 1 covers rows 0..3, cols
        // 3..5 — its clipped extents are 3×2, so element (1,4) is at
        // offset 1*2 + 1 = 3 within chunk 1.
        let l = ChunkLayout::new(vec![4, 5], vec![3, 3]).unwrap();
        assert_eq!(l.locate(&[1, 4]), Some(ChunkAddr { chunk: 1, offset: 3 }));
        let (start, count) = l.chunk_bounds(1).unwrap();
        assert_eq!(start, vec![0, 3]);
        assert_eq!(count, vec![3, 2]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(ChunkLayout::new(vec![], vec![]).is_err());
        assert!(ChunkLayout::new(vec![4], vec![2, 2]).is_err());
        assert!(ChunkLayout::new(vec![4], vec![0]).is_err());
    }
}
