//! Hot-path-alloc fixture: a method call does not resolve to a
//! crate-local free function of the same name. The hot kernel's
//! `v.push(x)` is `Vec::push` (amortised, allowed), not the allocating
//! free `fn push` below.

// pinocchio-hot: fixture kernel pushing into caller-provided scratch
pub fn hot_fill(xs: &[f64], v: &mut Vec<f64>) {
    v.clear();
    for &x in xs {
        v.push(x);
    }
}

pub fn push(xs: &[f64]) -> Vec<f64> {
    let mut fresh = Vec::with_capacity(xs.len() + 1);
    fresh.extend_from_slice(xs);
    fresh
}
