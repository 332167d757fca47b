//! Row copies through an index list, for the rows of `dim` values of a
//! dat or a map: renumbering a set, a rank's gather and scatter of a dat,
//! the halo pack. Widths 1-8 compile to fixed-size moves (a run-time
//! width costs a `memcpy` call per row); wider rows read it at run time.

/// `$rows::<_, N> $args` with `N` the row width `$dim` for widths 1-8,
/// else 0 (the width read at run time).
macro_rules! at_width {
    ($dim:expr, $rows:ident $args:tt) => {
        at_width!($dim, $rows $args, 1 2 3 4 5 6 7 8)
    };
    ($dim:expr, $rows:ident $args:tt, $($n:literal)*) => {
        match $dim {
            $($n => $rows::<_, $n> $args,)*
            _ => $rows::<_, 0> $args,
        }
    };
}

/// Append row `i` of `src` to `dst` for every `i` of `idx`, in order.
pub fn gather<T: Copy>(dst: &mut Vec<T>, src: &[T], idx: &[u32], dim: usize) {
    dst.reserve(idx.len() * dim);
    at_width!(dim, gather_rows(dst, src, idx, dim))
}

/// Copy row `k` of `src` to row `idx[k]` of `dst`, for every `k` of `idx`.
pub fn scatter<T: Copy>(dst: &mut [T], src: &[T], idx: &[u32], dim: usize) {
    at_width!(dim, scatter_rows(dst, src, idx, dim))
}

fn gather_rows<T: Copy, const N: usize>(dst: &mut Vec<T>, src: &[T], idx: &[u32], dim: usize) {
    let w = if N == 0 { dim } else { N };
    idx.iter().for_each(|&i| dst.extend_from_slice(&src[i as usize * w..][..w]));
}

fn scatter_rows<T: Copy, const N: usize>(dst: &mut [T], src: &[T], idx: &[u32], dim: usize) {
    let w = if N == 0 { dim } else { N };
    for (k, &i) in idx.iter().enumerate() {
        dst[i as usize * w..][..w].copy_from_slice(&src[k * w..][..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every width, the specialised ones and two beyond, against the
    /// one-value-at-a-time definition; a scatter through the same list
    /// puts every gathered row back.
    #[test]
    fn rows_match_the_definition_at_every_width() {
        let idx = [4u32, 0, 2, 2, 5, 1];
        for dim in 0..=10 {
            let src: Vec<u64> = (0..6 * dim as u64).map(|v| v * 7 + 3).collect();
            let mut got = vec![9u64; 2];
            gather(&mut got, &src, &idx, dim);
            let mut want = vec![9u64; 2];
            for &i in &idx {
                want.extend((0..dim).map(|c| src[i as usize * dim + c]));
            }
            assert_eq!(got, want, "gather at width {dim}");

            let perm = [3u32, 5, 0, 1, 4, 2];
            let mut moved = vec![0u64; src.len()];
            scatter(&mut moved, &src, &perm, dim);
            let mut back = Vec::new();
            gather(&mut back, &moved, &perm, dim);
            assert_eq!(back, src, "scatter then gather at width {dim}");
        }
    }
}
