//! Property tests: lazy chunked access agrees element-for-element with
//! dense row-major extraction, and arithmetic linear addressing agrees
//! with multidimensional addressing, including edge chunks, extent-1
//! and zero-extent dimensions.

use proptest::prelude::*;

use aql_store::{
    ChunkAddr, ChunkLayout, ChunkSource, LazyArray, Scalar, ScalarBuf, ScalarKind, StoreError,
};

/// A chunk source over a dense in-memory row-major f64 vector — the
/// ground truth the lazy path is compared against.
struct VecSource {
    dims: Vec<u64>,
    data: Vec<f64>,
}

impl ChunkSource for VecSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let n: u64 = count.iter().product();
        let mut out = Vec::with_capacity(n as usize);
        if n > 0 {
            let mut idx = start.to_vec();
            'outer: loop {
                let mut off = 0u64;
                for (&d, &i) in self.dims.iter().zip(idx.iter()) {
                    off = off * d + i;
                }
                out.push(self.data[off as usize]);
                let mut j = self.dims.len();
                loop {
                    if j == 0 {
                        break 'outer;
                    }
                    j -= 1;
                    idx[j] += 1;
                    if idx[j] < start[j] + count[j] {
                        break;
                    }
                    idx[j] = start[j];
                }
            }
        }
        Ok(ScalarBuf::F64(out))
    }
}

/// Dense row-major slab extraction — the reference implementation.
fn dense_slab(dims: &[u64], data: &[f64], start: &[u64], count: &[u64]) -> Vec<f64> {
    let n: u64 = count.iter().product();
    let mut out = Vec::with_capacity(n as usize);
    if n == 0 {
        return out;
    }
    let mut idx = start.to_vec();
    'outer: loop {
        let mut off = 0u64;
        for j in 0..dims.len() {
            off = off * dims[j] + idx[j];
        }
        out.push(data[off as usize]);
        let mut j = dims.len();
        loop {
            if j == 0 {
                break 'outer;
            }
            j -= 1;
            idx[j] += 1;
            if idx[j] < start[j] + count[j] {
                break;
            }
            idx[j] = start[j];
        }
    }
    out
}

/// Random rank-1..=3 extents (zero extents allowed), chunk extents,
/// and a slab request inside them.
fn arb_case() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>)> {
    (1usize..4)
        .prop_flat_map(|rank| {
            (
                prop::collection::vec(0u64..7, rank..=rank),
                prop::collection::vec(1u64..5, rank..=rank),
                prop::collection::vec(0.0f64..1.0, rank..=rank),
                prop::collection::vec(0.0f64..1.0, rank..=rank),
            )
        })
        .prop_map(|(dims, chunk, sf, cf)| {
            // Derive an in-bounds slab from the unit fractions: pick a
            // start in [0, d] and a count in [0, d - start].
            let mut start = Vec::with_capacity(dims.len());
            let mut count = Vec::with_capacity(dims.len());
            for j in 0..dims.len() {
                let s = (sf[j] * (dims[j] + 1) as f64).floor() as u64;
                let s = s.min(dims[j]);
                let c = (cf[j] * (dims[j] - s + 1) as f64).floor() as u64;
                start.push(s);
                count.push(c.min(dims[j] - s));
            }
            (dims, chunk, start, count)
        })
}

/// Row-major multidimensional index of linear offset `off`.
fn unflatten(off: u64, dims: &[u64]) -> Vec<u64> {
    let mut idx = vec![0u64; dims.len()];
    let mut rem = off;
    for j in (0..dims.len()).rev() {
        idx[j] = rem % dims[j];
        rem /= dims[j];
    }
    idx
}

fn iota(dims: &[u64]) -> Vec<f64> {
    let n: u64 = dims.iter().product();
    (0..n).map(|i| i as f64 * 0.5).collect()
}

proptest! {
    /// Lazy point reads agree with dense indexing at every in-bounds
    /// index, and reject every just-out-of-bounds index.
    #[test]
    fn lazy_get_matches_dense((dims, chunk, _s, _c) in arb_case()) {
        let data = iota(&dims);
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let src = VecSource { dims: dims.clone(), data: data.clone() };
        let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(src), 1 << 12);

        let n: u64 = dims.iter().product();
        for off in 0..n {
            let idx = unflatten(off, &dims);
            let got = lazy.get(&idx).unwrap();
            prop_assert_eq!(got, Some(Scalar::F64(data[off as usize])));
            prop_assert_eq!(lazy.get_linear(off).unwrap(), got);
        }
        // One step past the end of each dimension is out of bounds.
        for j in 0..dims.len() {
            let mut idx: Vec<u64> = dims.iter().map(|&d| d.saturating_sub(1)).collect();
            idx[j] = dims[j];
            prop_assert_eq!(lazy.get(&idx).unwrap(), None);
        }
        prop_assert_eq!(lazy.get_linear(n).unwrap(), None);
    }

    /// Lazy slab extraction agrees element-for-element with the dense
    /// reference, including edge chunks and zero-extent requests.
    #[test]
    fn lazy_slab_matches_dense((dims, chunk, start, count) in arb_case()) {
        let data = iota(&dims);
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let src = VecSource { dims: dims.clone(), data: data.clone() };
        let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(src), 1 << 12);

        let got = lazy.read_slab(&start, &count).unwrap();
        let want = dense_slab(&dims, &data, &start, &count);
        prop_assert_eq!(got, ScalarBuf::F64(want));
    }

    /// `locate_linear(off)` is `locate` of the row-major index of `off`
    /// for every offset, and the address it gives lies inside its
    /// (clipped) chunk; past the end it is `None`. Ranks up to 4,
    /// extents 0..7 (so extent-1 and zero-extent dimensions occur) and
    /// chunk extents that clip the trailing edge.
    #[test]
    fn locate_linear_matches_locate(
        dims in (1usize..5).prop_flat_map(|r| prop::collection::vec(0u64..7, r..=r)),
        chunk_seed in prop::collection::vec(1u64..6, 4..=4),
    ) {
        let chunk: Vec<u64> = chunk_seed[..dims.len()].to_vec();
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let n = layout.total_elems();
        for off in 0..n {
            let idx = unflatten(off, &dims);
            let addr = layout.locate_linear(off);
            prop_assert_eq!(addr, layout.locate(&idx));
            let ChunkAddr { chunk, offset } = addr.unwrap();
            prop_assert!(offset < layout.chunk_len(chunk).unwrap());
        }
        prop_assert_eq!(layout.locate_linear(n), None);
        prop_assert_eq!(layout.locate_linear(u64::MAX), None);
    }
}
