//! Free functions on `&[f32]` vectors: dot products, norms,
//! normalization, and distances used across the workspace.

/// Dot product of two equal-length vectors.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Cosine similarity; returns 0 when either vector is all zeros.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Index of the maximum element. Returns `None` for an empty slice.
pub fn argmax(a: &[f32]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in a.iter().enumerate() {
        if v > a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Indices of the `k` largest elements, in descending value order.
pub fn top_k(a: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| a[j].partial_cmp(&a[i]).unwrap_or(std::cmp::Ordering::Equal));
    idx.truncate(k);
    idx
}

/// Scales `a` in place so it sums to one. A zero vector is left untouched.
pub fn normalize_l1(a: &mut [f32]) {
    let sum: f32 = a.iter().sum();
    if sum != 0.0 {
        let inv = 1.0 / sum;
        for v in a.iter_mut() {
            *v *= inv;
        }
    }
}

/// Scales `a` in place to unit L2 norm. A zero vector is left untouched.
pub fn normalize_l2(a: &mut [f32]) {
    let n = norm2(a);
    if n != 0.0 {
        let inv = 1.0 / n;
        for v in a.iter_mut() {
            *v *= inv;
        }
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance; 0 for slices with fewer than two elements.
pub fn variance(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn argmax_and_top_k() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(top_k(&[0.1, 0.9, 0.5, 0.7], 2), vec![1, 3]);
        assert_eq!(top_k(&[0.1, 0.2], 5), vec![1, 0]);
    }

    #[test]
    fn normalization() {
        let mut a = [2.0, 2.0];
        normalize_l1(&mut a);
        assert_eq!(a, [0.5, 0.5]);
        let mut b = [3.0, 4.0];
        normalize_l2(&mut b);
        assert!((norm2(&b) - 1.0).abs() < 1e-6);
        let mut z = [0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn mean_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, [3.0, 5.0]);
    }
}
