//! The fixed-capacity overwrite-on-wrap ring both recorders write into: the
//! per-thread span rings and the black-box journal.

/// A pre-sized ring of `Copy` records. It never grows: pushing is an array
/// write, and once the ring wraps the oldest records are overwritten and
/// counted as dropped.
pub(crate) struct Ring<T> {
    slots: Vec<T>,
    /// Next write position (wraps at capacity).
    next: usize,
    /// Records ever written; `total - capacity` have been overwritten.
    total: u64,
}

impl<T: Copy> Ring<T> {
    /// A ring of `capacity` slots (at least one), pre-filled with `empty`
    /// so that no push ever allocates.
    pub(crate) fn with_capacity(capacity: usize, empty: T) -> Self {
        Ring {
            slots: vec![empty; capacity.max(1)],
            next: 0,
            total: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, record: T) {
        self.slots[self.next] = record;
        self.next = (self.next + 1) % self.slots.len();
        self.total += 1;
    }

    /// Live records in recording order (oldest first).
    pub(crate) fn ordered(&self) -> Vec<T> {
        let cap = self.slots.len();
        let len = (self.total as usize).min(cap);
        let start = if self.total as usize > cap {
            self.next
        } else {
            0
        };
        (0..len).map(|k| self.slots[(start + k) % cap]).collect()
    }

    /// Records overwritten since the last [`clear`](Self::clear).
    pub(crate) fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.slots.len() as u64)
    }

    /// Empties the ring (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.next = 0;
        self.total = 0;
    }
}
