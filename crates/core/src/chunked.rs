//! A vector stored in fixed-size chunks behind `Arc`s, so a clone shares
//! every chunk and a write copies only the chunk it lands in, and only
//! while an older clone still holds that chunk (`Arc::make_mut`).
//!
//! The dynamic state keeps its object rows and each influence-mask
//! column in one of these, which is what makes an epoch clone cost one
//! pointer per chunk instead of a deep copy (DESIGN.md §13).

use std::sync::Arc;

/// Copy-on-write chunked vector with `N` elements per chunk. Every
/// chunk but the last holds exactly `N` elements.
#[derive(Debug, Clone)]
pub(crate) struct SharedChunks<T, const N: usize> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T, const N: usize> Default for SharedChunks<T, N> {
    fn default() -> Self {
        SharedChunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone, const N: usize> SharedChunks<T, N> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / N)?.get(index % N)
    }

    /// The element at `index`, unsharing its chunk first.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        self.chunk_mut(index / N)?.get_mut(index % N)
    }

    /// Chunk `c`: elements `c * N ..`.
    pub(crate) fn chunk(&self, c: usize) -> Option<&[T]> {
        Some(self.chunks.get(c)?.as_slice())
    }

    /// Chunk `c`, unshared for writing.
    pub(crate) fn chunk_mut(&mut self, c: usize) -> Option<&mut [T]> {
        Some(Arc::make_mut(self.chunks.get_mut(c)?).as_mut_slice())
    }

    pub(crate) fn push_back(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < N => Arc::make_mut(last).push(value),
            _ => {
                let mut chunk = Vec::with_capacity(N);
                chunk.push(value);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Pads with `value` up to `len` elements; never shrinks.
    pub(crate) fn grow_to(&mut self, len: usize, value: T) {
        while self.len < len {
            let room = match self.chunks.last_mut() {
                Some(last) if last.len() < N => Arc::make_mut(last),
                _ => {
                    self.chunks.push(Arc::new(Vec::with_capacity(N)));
                    continue;
                }
            };
            let add = (N - room.len()).min(len - self.len);
            room.resize(room.len() + add, value.clone());
            self.len += add;
        }
    }

    /// The elements as consecutive chunk slices, in index order.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(|chunk| chunk.as_slice())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_after_a_clone_copies_one_chunk_and_leaves_the_clone_intact() {
        let mut live = SharedChunks::<u32, 4>::default();
        (0..10).for_each(|v| live.push_back(v));
        assert_eq!(live.len(), 10);
        assert_eq!(
            live.chunks().map(<[u32]>::len).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        let held = live.clone();
        *live.get_mut(5).unwrap() = 50;
        live.push_back(10);
        assert_eq!(
            held.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(live.get(5), Some(&50));
        assert_eq!(live.get(10), Some(&10));
        assert_eq!(live.get(11), None);
        // Only the written chunk and the appended-to one were copied.
        let shared: Vec<bool> = (0..3)
            .map(|c| Arc::ptr_eq(&live.chunks[c], &held.chunks[c]))
            .collect();
        assert_eq!(shared, [true, false, false]);
        // An unshared chunk is written in place.
        let before = live.chunks[1].as_ptr();
        *live.get_mut(6).unwrap() = 60;
        assert_eq!(live.chunks[1].as_ptr(), before);
    }

    #[test]
    fn grow_to_pads_and_never_shrinks() {
        let mut column = SharedChunks::<u64, 4>::default();
        column.grow_to(9, 0);
        assert_eq!(column.len(), 9);
        column.grow_to(3, 7);
        assert_eq!(column.len(), 9);
        assert!(column.iter().all(|&w| w == 0));
        assert!(column.chunk_mut(3).is_none());
    }
}
