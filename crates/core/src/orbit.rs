//! Orbit detection for rotation phases.
//!
//! Inside one phase a down-rotation of the requested size is a
//! deterministic function of the state, and it commutes with a uniform
//! shift of the rotation function: adding `c` to every `R(v)` leaves
//! every retimed delay, and so every scheduling decision, unchanged. So
//! the state that matters is the schedule plus `R − R(v₀)`, and that
//! state space is finite. Once the state after rotation `j` equals the
//! state after an earlier rotation `k`, the rest of the phase walks the
//! same orbit of period `P = j − k` over and over, each lap adding the
//! same uniform shift `c = R_j(v₀) − R_k(v₀)` to the rotation function.
//!
//! [`OrbitLog`] records the states of one phase in flat buffers, so the
//! [`SearchDriver`](crate::engine::SearchDriver) can detect the repeat
//! and fast-forward over the remaining laps. A driver reuses its log
//! across phases, and a dropped log leaves its buffers to the next one
//! built on the same thread.

use std::cell::RefCell;

use rotsched_dfg::NodeId;

use crate::rotate::RotationState;

/// The log stops recording once it holds this many per-node entries
/// (3 MiB); a phase past that point runs the plain loop to its end.
const MAX_LOGGED_VALUES: usize = 1 << 18;

/// Random odd multipliers for the state hash, one per position modulo
/// 64 (the splitmix64 sequence, built at compile time).
const MULTIPLIERS: [u64; 64] = {
    let mut table = [0_u64; 64];
    let mut state = 0x0B17_5EED_u64;
    let mut i = 0;
    while i < 64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = (z ^ (z >> 31)) | 1;
        i += 1;
    }
    table
};

/// The buffers of one retired [`OrbitLog`].
type Buffers = (Vec<u32>, Vec<i64>, Vec<u64>, Vec<u32>);

thread_local! {
    /// The buffers of the last log dropped on this thread. Drivers are
    /// built per solve and per portfolio task, so a new log picks these
    /// up instead of allocating its own.
    static SPARE: RefCell<Option<Buffers>> = const { RefCell::new(None) };
}

/// The states visited by one rotation phase, one row per recorded
/// state, plus an open-addressing index over their hashes.
#[derive(Debug)]
pub(crate) struct OrbitLog {
    /// Entries per row: the node count.
    width: usize,
    /// Rows the log may hold before it stops recording.
    limit: usize,
    /// Per row, every node's schedule start (`0` when unscheduled).
    starts: Vec<u32>,
    /// Per row, every node's `R(v)`.
    levels: Vec<i64>,
    /// Per row, its hash.
    hashes: Vec<u64>,
    /// Row index + 1 per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// Rotations skipped over the log's lifetime (never reset).
    pub(crate) skipped: usize,
}

impl Default for OrbitLog {
    fn default() -> Self {
        let (starts, levels, hashes, slots) = SPARE
            .try_with(|spare| spare.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default();
        OrbitLog {
            width: 0,
            limit: 0,
            starts,
            levels,
            hashes,
            slots,
            skipped: 0,
        }
    }
}

impl Drop for OrbitLog {
    fn drop(&mut self) {
        let buffers = (
            std::mem::take(&mut self.starts),
            std::mem::take(&mut self.levels),
            std::mem::take(&mut self.hashes),
            std::mem::take(&mut self.slots),
        );
        // During thread teardown the spare is gone; the buffers just drop.
        let _ = SPARE.try_with(|spare| *spare.borrow_mut() = Some(buffers));
    }
}

impl OrbitLog {
    /// Empties the log for a phase of at most `alpha` rotations over a
    /// graph of `nodes` nodes, keeping every buffer's capacity.
    pub(crate) fn reset(&mut self, nodes: usize, alpha: usize) {
        self.width = nodes;
        self.limit = alpha.min(MAX_LOGGED_VALUES / nodes.max(1));
        self.starts.clear();
        self.levels.clear();
        self.hashes.clear();
        self.slots.clear();
        // At most half full, so every probe meets an empty slot.
        self.slots
            .resize((2 * self.limit).next_power_of_two().max(2), 0);
    }

    /// Records `state` as the next row, or — when an earlier row holds
    /// the same state up to a uniform retiming shift — returns that
    /// row's index without recording. Hash hits are confirmed by an
    /// exact comparison, so a collision costs a compare, never a wrong
    /// answer.
    pub(crate) fn record(&mut self, state: &RotationState) -> Option<usize> {
        let row = self.hashes.len();
        if row >= self.limit {
            return None;
        }
        let base = row * self.width;
        let retiming = state.retiming.as_slice();
        self.starts
            .extend(state.schedule.starts().iter().map(|&s| s.unwrap_or(0)));
        self.levels.extend_from_slice(retiming);
        // A multiply-xor hash: each pair of starts times its position's
        // multiplier, xored together, plus the retiming's sum relative
        // to node 0 (which a uniform shift leaves alone). No step waits
        // on the previous one, unlike a byte-serial hash, whose latency
        // chain cost as much as the skipped rotations saved.
        let mut pairs = self.starts[base..].chunks_exact(2);
        let mut hash = pairs.by_ref().enumerate().fold(0_u64, |hash, (i, pair)| {
            let packed = u64::from(pair[0]) | u64::from(pair[1]) << 32;
            hash ^ packed.wrapping_mul(MULTIPLIERS[i % 64])
        });
        if let [last] = pairs.remainder() {
            hash ^= u64::from(*last)
                .wrapping_mul(MULTIPLIERS[63])
                .rotate_left(32);
        }
        let anchor = retiming.first().copied().unwrap_or(0);
        let spread = retiming
            .iter()
            .fold(0_i64, |sum, &r| sum.wrapping_add(r.wrapping_sub(anchor)));
        hash ^= spread
            .cast_unsigned()
            .wrapping_mul(MULTIPLIERS[62])
            .rotate_left(16);

        let mask = self.slots.len() - 1;
        let mut pos = (hash ^ (hash >> 32)) as usize & mask;
        loop {
            match self.slots[pos] {
                0 => break,
                slot => {
                    let earlier = slot as usize - 1;
                    if self.hashes[earlier] == hash && self.same_row(earlier, base) {
                        self.starts.truncate(base);
                        self.levels.truncate(base);
                        return Some(earlier);
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = u32::try_from(row + 1).expect("the log holds under 2^32 rows");
        self.hashes.push(hash);
        None
    }

    /// Whether row `row` equals the unindexed row starting at `base`:
    /// the same starts, and rotation functions a uniform shift apart.
    fn same_row(&self, row: usize, base: usize) -> bool {
        let at = row * self.width;
        let w = self.width;
        if self.starts[at..at + w] != self.starts[base..base + w] {
            return false;
        }
        let (earlier, latest) = (&self.levels[at..at + w], &self.levels[base..base + w]);
        let shift = latest
            .first()
            .zip(earlier.first())
            .map_or(0, |(l, e)| l - e);
        earlier.iter().zip(latest).all(|(e, l)| l - e == shift)
    }

    /// `R(v₀)` of row `row`.
    pub(crate) fn anchor(&self, row: usize) -> i64 {
        self.levels.get(row * self.width).copied().unwrap_or(0)
    }

    /// Overwrites `state` with row `row`, its rotation function lifted
    /// by `shift` on every node.
    pub(crate) fn restore(&self, row: usize, shift: i64, state: &mut RotationState) {
        let at = row * self.width;
        let starts = &self.starts[at..at + self.width];
        let levels = &self.levels[at..at + self.width];
        for (i, (&start, &level)) in starts.iter().zip(levels).enumerate() {
            let v = NodeId::from_index(i);
            match start {
                0 => state.schedule.clear(v),
                start => state.schedule.set(v, start),
            }
            state.retiming.set(v, level + shift);
        }
    }
}
