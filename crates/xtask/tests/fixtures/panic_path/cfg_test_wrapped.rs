//! Fixture: a `#[cfg(test)]` item is test code however its signature
//! wraps, and a brace-less one ends at its `;`.

#[cfg(test)]
use std::collections::BTreeMap;

/// Library code right after a brace-less test item is linted.
pub fn after_use(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
pub(crate) fn synthetic_fixture(
    seed: u64,
    size: usize,
) -> Vec<u64> {
    let map: BTreeMap<u64, u64> = BTreeMap::new();
    let first = map.get(&seed).copied().unwrap();
    vec![first; size]
}

/// Library code after the wrapped test fn is linted again.
pub fn after_fn(x: Option<u32>) -> u32 {
    x.expect("present")
}
