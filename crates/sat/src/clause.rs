//! Clause storage for the CDCL solver: a flat, contiguous `u32` arena.
//!
//! Clauses live inline in a single `Vec<u32>` (MiniSat-style): a small
//! header followed by the literals, with a [`ClauseRef`] being the word
//! offset of the header. Propagation therefore walks one cache-friendly
//! buffer instead of chasing a `Vec<Vec<Lit>>` pointer per clause.
//! Removal tombstones the clause in place; the wasted space is reclaimed
//! by a compacting garbage collection (see `Solver::garbage_collect`)
//! that relocates live clauses into a fresh arena and leaves forwarding
//! addresses behind so watchers, reasons and the learnt list can be
//! rewritten.
//!
//! A [`Watcher`] tags binary clauses in the top bit of its clause
//! reference, so the arena must stay below 2^31 words
//! ([`MAX_ARENA_WORDS`]); allocation and relocation assert it.

use crate::lit::Lit;

/// Reference to a clause: the word offset of its header inside the arena.
pub(crate) type ClauseRef = u32;

/// Sentinel meaning "no reason clause" for decision/unassigned variables.
pub(crate) const NO_REASON: ClauseRef = u32::MAX;

/// Words preceding the literals of every clause:
/// `[header, lbd | forward, activity]`.
const HEADER_WORDS: usize = 3;

// Header bit layout: `size << 3 | relocated << 2 | removed << 1 | learnt`.
const FLAG_LEARNT: u32 = 0b001;
const FLAG_REMOVED: u32 = 0b010;
const FLAG_RELOCATED: u32 = 0b100;
const SIZE_SHIFT: u32 = 3;

/// Bit of a [`Watcher`]'s stored reference that marks a binary clause.
const BINARY_TAG: u32 = 1 << 31;

/// Arena words addressable by a [`ClauseRef`] that leaves [`BINARY_TAG`]
/// free.
const MAX_ARENA_WORDS: usize = BINARY_TAG as usize;

/// The clause database: one flat `u32` arena plus the learnt-clause index.
///
/// Tombstoned clauses keep their header (and size) so the arena stays
/// walkable; [`ClauseDb::wants_gc`] reports when enough words are wasted
/// that compaction pays off.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClauseDb {
    data: Vec<u32>,
    /// Words occupied by tombstoned clauses.
    wasted: usize,
    /// Live clause count.
    live: usize,
    /// Live learnt-clause count, kept by `alloc`, `remove`,
    /// `make_irredundant` and relocation so the search loop reads it in
    /// O(1) before every decision.
    live_learnts: usize,
    /// Live learnt-clause refs (may contain stale entries cleaned at
    /// reduce/GC time).
    pub(crate) learnts: Vec<ClauseRef>,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Allocates a clause at the end of the arena and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(!lits.is_empty());
        let cref = self.next_ref(HEADER_WORDS + lits.len());
        let header = ((lits.len() as u32) << SIZE_SHIFT) | if learnt { FLAG_LEARNT } else { 0 };
        self.data.reserve(HEADER_WORDS + lits.len());
        self.data.push(header);
        self.data.push(lbd);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.index() as u32));
        self.live += 1;
        if learnt {
            self.live_learnts += 1;
            self.learnts.push(cref);
        }
        cref
    }

    /// The reference of a clause of `words` words appended to the arena.
    fn next_ref(&self, words: usize) -> ClauseRef {
        assert!(
            self.data.len() + words <= MAX_ARENA_WORDS,
            "clause arena overflow: watchers address at most 2^31 words"
        );
        self.data.len() as ClauseRef
    }

    /// Tombstones a clause. Its slot stays walkable (the size is kept) but
    /// the words count as wasted until the next compaction.
    pub(crate) fn remove(&mut self, cref: ClauseRef) {
        let h = self.data[cref as usize];
        debug_assert_eq!(
            h & (FLAG_REMOVED | FLAG_RELOCATED),
            0,
            "double removal of {cref}"
        );
        self.data[cref as usize] = h | FLAG_REMOVED;
        self.wasted += HEADER_WORDS + (h >> SIZE_SHIFT) as usize;
        self.live -= 1;
        if h & FLAG_LEARNT != 0 {
            self.live_learnts -= 1;
        }
    }

    #[inline]
    pub(crate) fn is_removed(&self, cref: ClauseRef) -> bool {
        self.data[cref as usize] & FLAG_REMOVED != 0
    }

    #[inline]
    pub(crate) fn learnt(&self, cref: ClauseRef) -> bool {
        self.data[cref as usize] & FLAG_LEARNT != 0
    }

    /// Promotes a learnt clause to irredundant: clears the learnt flag and
    /// drops it from the learnt index, so `reduce_db` can never delete it.
    /// Needed when a learnt clause starts justifying the deletion of an
    /// input clause (e.g. preprocessing subsumption).
    pub(crate) fn make_irredundant(&mut self, cref: ClauseRef) {
        let h = self.data[cref as usize];
        if h & FLAG_LEARNT == 0 {
            return;
        }
        debug_assert_eq!(h & FLAG_REMOVED, 0, "promoting a tombstoned clause {cref}");
        self.data[cref as usize] = h & !FLAG_LEARNT;
        self.live_learnts -= 1;
        if let Some(i) = self.learnts.iter().position(|&c| c == cref) {
            self.learnts.swap_remove(i);
        }
    }

    /// Number of literals in the clause.
    #[inline]
    pub(crate) fn size(&self, cref: ClauseRef) -> usize {
        (self.data[cref as usize] >> SIZE_SHIFT) as usize
    }

    /// The `k`-th literal of the clause.
    #[inline]
    pub(crate) fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.size(cref));
        Lit::from_index(self.data[cref as usize + HEADER_WORDS + k] as usize)
    }

    /// Swaps two literal slots of the clause (watch normalization).
    #[inline]
    pub(crate) fn swap_lits(&mut self, cref: ClauseRef, a: usize, b: usize) {
        let base = cref as usize + HEADER_WORDS;
        self.data.swap(base + a, base + b);
    }

    /// The clause's literals, copied out (cold paths: proofs, simplify).
    pub(crate) fn lits_vec(&self, cref: ClauseRef) -> Vec<Lit> {
        let base = cref as usize + HEADER_WORDS;
        self.data[base..base + self.size(cref)]
            .iter()
            .map(|&w| Lit::from_index(w as usize))
            .collect()
    }

    #[inline]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.data[cref as usize + 1]
    }

    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.data[cref as usize + 2])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.data[cref as usize + 2] = activity.to_bits();
    }

    /// Number of live clauses.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Number of live learnt clauses.
    #[inline]
    pub(crate) fn num_learnts(&self) -> usize {
        self.live_learnts
    }

    /// All clause refs in the arena, live and tombstoned alike, in
    /// allocation order.
    pub(crate) fn crefs(&self) -> Vec<ClauseRef> {
        let mut out = Vec::with_capacity(self.live);
        let mut at = 0usize;
        while at < self.data.len() {
            out.push(at as ClauseRef);
            at += HEADER_WORDS + (self.data[at] >> SIZE_SHIFT) as usize;
        }
        out
    }

    /// Literals across the live clauses.
    pub(crate) fn live_literals(&self) -> usize {
        self.data.len() - self.wasted - HEADER_WORDS * self.live
    }

    /// Arena size in words (live + wasted).
    pub(crate) fn arena_words(&self) -> usize {
        self.data.len()
    }

    /// Words currently tombstoned.
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Whether enough of the arena is tombstoned that compaction pays off
    /// (MiniSat's 20% rule).
    pub(crate) fn wants_gc(&self) -> bool {
        self.wasted * 5 > self.data.len()
    }

    /// Relocates `cref` into `to`, leaving a forwarding address behind so
    /// further relocations of the same clause return the same new ref.
    pub(crate) fn reloc(&mut self, cref: ClauseRef, to: &mut ClauseDb) -> ClauseRef {
        let h = self.data[cref as usize];
        if h & FLAG_RELOCATED != 0 {
            return self.data[cref as usize + 1];
        }
        debug_assert_eq!(h & FLAG_REMOVED, 0, "relocating a tombstoned clause {cref}");
        let size = (h >> SIZE_SHIFT) as usize;
        let new = to.next_ref(HEADER_WORDS + size);
        to.data
            .extend_from_slice(&self.data[cref as usize..cref as usize + HEADER_WORDS + size]);
        to.live += 1;
        if h & FLAG_LEARNT != 0 {
            to.live_learnts += 1;
        }
        self.data[cref as usize] = h | FLAG_RELOCATED;
        self.data[cref as usize + 1] = new;
        new
    }

    /// Installs the compacted arena produced by a relocation pass.
    pub(crate) fn finish_gc(&mut self, to: ClauseDb, learnts: Vec<ClauseRef>) {
        debug_assert_eq!(
            self.live_learnts, to.live_learnts,
            "a live learnt clause was lost"
        );
        self.data = to.data;
        self.live = to.live;
        self.live_learnts = to.live_learnts;
        self.wasted = 0;
        self.learnts = learnts;
    }
}

/// A watch-list entry: the clause plus a cached "blocker" literal whose truth
/// makes visiting the clause unnecessary.
///
/// The top bit of the stored reference tags a binary clause. A binary
/// clause's blocker is always its other literal, so propagation settles
/// it from the watcher alone: the clause is satisfied, unit or
/// conflicting, and only a conflict reads the arena. The tag keeps the
/// watcher at 8 bytes.
#[derive(Debug, Copy, Clone)]
pub(crate) struct Watcher {
    tagged: u32,
    pub(crate) blocker: Lit,
}

impl Watcher {
    #[inline]
    pub(crate) fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        debug_assert_eq!(cref & BINARY_TAG, 0);
        Watcher {
            tagged: if binary { cref | BINARY_TAG } else { cref },
            blocker,
        }
    }

    /// The watched clause.
    #[inline]
    pub(crate) fn cref(self) -> ClauseRef {
        self.tagged & !BINARY_TAG
    }

    /// Whether the watched clause has exactly two literals.
    #[inline]
    pub(crate) fn is_binary(self) -> bool {
        self.tagged & BINARY_TAG != 0
    }

    /// Points the watcher at `cref` (a relocated copy), keeping its tag.
    #[inline]
    pub(crate) fn set_cref(&mut self, cref: ClauseRef) {
        debug_assert_eq!(cref & BINARY_TAG, 0);
        self.tagged = (self.tagged & BINARY_TAG) | cref;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&x| Lit::new(Var::from_index(x.unsigned_abs() as usize), x > 0))
            .collect()
    }

    #[test]
    fn alloc_and_tombstone() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[2, 3, 4]), true, 2);
        assert_eq!(db.len(), 2);
        assert_eq!(db.num_learnts(), 1);
        assert_eq!(db.size(b), 3);
        assert_eq!(db.lits_vec(b), lits(&[2, 3, 4]));
        db.remove(b);
        assert_eq!(db.len(), 1);
        assert!(db.is_removed(b));
        assert!(!db.is_removed(a));
        assert_eq!(db.wasted_words(), HEADER_WORDS + 3);
        // Tombstones keep their size so the arena stays walkable.
        assert_eq!(db.crefs(), vec![a, b]);
    }

    #[test]
    fn reloc_compacts_and_forwards() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[2, 3]), true, 2);
        let c = db.alloc(&lits(&[3, 4]), false, 0);
        db.set_activity(b, 1.5);
        db.remove(a);
        let mut to = ClauseDb::new();
        let nb = db.reloc(b, &mut to);
        let nc = db.reloc(c, &mut to);
        // A second relocation returns the forwarding address.
        assert_eq!(db.reloc(b, &mut to), nb);
        db.finish_gc(to, vec![nb]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.wasted_words(), 0);
        assert_eq!(db.lits_vec(nb), lits(&[2, 3]));
        assert_eq!(db.lits_vec(nc), lits(&[3, 4]));
        assert!(db.learnt(nb));
        assert_eq!(db.lbd(nb), 2);
        assert_eq!(db.activity(nb), 1.5);
        assert!(!db.learnt(nc));
        assert_eq!(db.num_learnts(), 1);
    }

    #[test]
    fn gc_threshold_tracks_waste() {
        let mut db = ClauseDb::new();
        let refs: Vec<ClauseRef> = (0..10)
            .map(|_| db.alloc(&lits(&[1, 2, 3]), false, 0))
            .collect();
        assert!(!db.wants_gc());
        for &r in &refs[..5] {
            db.remove(r);
        }
        assert!(db.wants_gc());
    }

    #[test]
    fn learnt_count_follows_removal_promotion_and_relocation() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 2);
        let b = db.alloc(&lits(&[2, 3, 4]), true, 2);
        let c = db.alloc(&lits(&[3, 4, 5]), true, 2);
        db.alloc(&lits(&[1, 5]), false, 0);
        assert_eq!(db.num_learnts(), 3);
        db.remove(a);
        db.make_irredundant(b);
        db.make_irredundant(b);
        assert_eq!(db.num_learnts(), 1);
        let mut to = ClauseDb::new();
        let nb = db.reloc(b, &mut to);
        let nc = db.reloc(c, &mut to);
        db.finish_gc(to, vec![nc]);
        assert_eq!(db.num_learnts(), 1);
        assert!(!db.learnt(nb));
        db.remove(nc);
        assert_eq!(db.num_learnts(), 0);
    }

    #[test]
    fn watchers_tag_binary_clauses_in_eight_bytes() {
        assert_eq!(std::mem::size_of::<Watcher>(), 8);
        let blocker = lits(&[3])[0];
        let mut w = Watcher::new(7, blocker, true);
        assert!(w.is_binary());
        assert_eq!(w.cref(), 7);
        w.set_cref(42);
        assert!(w.is_binary(), "relocation keeps the tag");
        assert_eq!(w.cref(), 42);
        let long = Watcher::new(MAX_ARENA_WORDS as ClauseRef - 1, blocker, false);
        assert!(!long.is_binary());
        assert_eq!(long.cref(), MAX_ARENA_WORDS as ClauseRef - 1);
    }

    #[test]
    fn activity_round_trips_through_bits() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 1);
        assert_eq!(db.activity(a), 0.0);
        db.set_activity(a, 3.25e10);
        assert_eq!(db.activity(a), 3.25e10);
    }
}
