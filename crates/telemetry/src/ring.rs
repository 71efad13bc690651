//! The fixed-capacity overwrite-on-wrap ring every recorder writes into:
//! the per-thread span rings, the black-box journal and the
//! [`RecentWindow`](crate::RecentWindow) the load shedder reads.

/// A pre-sized ring of `Copy` records. It never grows: pushing is an array
/// write, and once the ring wraps the oldest records are overwritten and
/// counted as dropped.
#[derive(Debug, Clone)]
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

    /// Live records in slot order — recording order rotated by the wrap
    /// point. Borrows; for readers that do not care about order.
    pub(crate) fn live(&self) -> &[T] {
        &self.slots[..(self.total as usize).min(self.slots.len())]
    }

    /// Live records in recording order (oldest first).
    pub(crate) fn ordered(&self) -> Vec<T> {
        let live = self.live();
        let start = if live.len() == self.slots.len() {
            self.next
        } else {
            0
        };
        (0..live.len())
            .map(|k| live[(start + k) % live.len()])
            .collect()
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
