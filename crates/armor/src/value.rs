//! Dynamic element state: typed values that can be checkpointed,
//! assertion-checked, and bit-flipped.
//!
//! ARMOR elements keep their private state as [`Fields`] — an ordered map
//! of named [`Value`]s. One representation serves three mechanisms that
//! the paper couples tightly:
//!
//! * **microcheckpointing** (§3.4): `Fields` serialise to a compact wire
//!   image copied into the element's checkpoint-buffer region;
//! * **heap injection** (§7): a bit flip lands in a *real leaf value* and
//!   propagates through genuine protocol logic (e.g. a flipped daemon ID
//!   in `node_mgmt` routes a message to daemon 0);
//! * **assertions** (§3.3): range/validity checks run over the same state
//!   the injector corrupts, so detection coverage is meaningful.
//!
//! Pointer-class fields ([`Value::Ptr`]) model structural linkage: the
//! paper found "crash failures were most often caused by segmentation
//! faults raised when a corrupted pointer was dereferenced" (§7.2), so a
//! corrupted `Ptr` crashes the ARMOR the next time the owning element
//! touches its state.

use ree_os::FieldKind;
use ree_sim::SimRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A dynamically typed state value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counters, identifiers).
    U64(u64),
    /// UTF-8 text (hostnames, executable paths).
    Str(String),
    /// Structural pointer; corruption crashes on next dereference.
    Ptr(u64),
    /// Ordered list.
    List(Vec<Value>),
    /// Named sub-structure.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// The paper's pointer/data field classification (§7.2).
    pub(crate) fn kind(&self) -> FieldKind {
        match self {
            Value::Ptr(_) => FieldKind::Pointer,
            _ => FieldKind::Data,
        }
    }

    /// Number of leaf values inside this value (1 for scalars).
    pub(crate) fn leaf_count(&self) -> usize {
        match self {
            Value::List(items) => items.iter().map(Value::leaf_count).sum(),
            Value::Map(map) => map.values().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }

    /// True if this value contains a leaf matching `want` (any leaf when
    /// `None`) — recursive and allocation-free; the injector's "can this
    /// region be hit" probe.
    pub(crate) fn has_leaf(&self, want: Option<FieldKind>) -> bool {
        match self {
            Value::List(items) => items.iter().any(|v| v.has_leaf(want)),
            Value::Map(map) => map.values().any(|v| v.has_leaf(want)),
            leaf => want.is_none_or(|kind| leaf.kind() == kind),
        }
    }

    /// True if this value contains a pointer leaf misaligned w.r.t.
    /// `align` (recursive, allocation-free).
    pub(crate) fn has_misaligned_ptr(&self, align: u64) -> bool {
        match self {
            Value::Ptr(p) => p % align != 0,
            Value::List(items) => items.iter().any(|v| v.has_misaligned_ptr(align)),
            Value::Map(map) => map.values().any(|v| v.has_misaligned_ptr(align)),
            _ => false,
        }
    }

    /// Flips one uniformly chosen bit of this leaf value. For containers
    /// this is a no-op (callers pick leaves via [`Fields::leaf_paths`]).
    pub fn flip_bit(&mut self, rng: &mut SimRng) {
        match self {
            Value::Bool(b) => *b = !*b,
            Value::U64(v) | Value::Ptr(v) => *v ^= 1u64 << rng.below(64),
            Value::Str(s) => {
                if s.is_empty() {
                    s.push('\u{1}');
                } else {
                    // Flip a low bit of one byte, re-validating UTF-8 by
                    // replacement so the value stays a legal string while
                    // still being wrong.
                    let mut bytes = s.clone().into_bytes();
                    let i = rng.index(bytes.len());
                    bytes[i] ^= 1 << rng.below(7) as u8;
                    *s = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
            Value::List(_) | Value::Map(_) => {}
        }
    }

    /// Convenience accessor.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

/// The named state of one element: an ordered map of values.
///
/// # Change tracking
///
/// The map knows when it *may* have changed: every entry point that can
/// alter a value ([`Fields::set`], [`Fields::get_mut`],
/// [`Fields::remove`] of a present field, [`Fields::bump`],
/// [`Fields::resolve_mut`] and hence [`Fields::flip_random_leaf`]) marks
/// it dirty and drops the cached structural-pointer verdict. The ARMOR
/// runtime microcheckpoints an element only while its state is dirty and
/// asks the cached verdict instead of re-walking every value per event.
/// Both are bookkeeping, not state: equality, `Debug` and the wire
/// encoding ignore them.
///
/// A map is clean only between a [`Fields::take_dirty`] and the next
/// mutating call on that same map: a new map and a clone are both born
/// dirty, so assigning a whole new state over an element's (`*state =
/// other`) can never pass for "unchanged since the last snapshot".
///
/// # Sharing
///
/// A clone shares the entries with its original until either side
/// writes: the mutating entry points above are the only way to a
/// mutable entry, and each unshares (copies the map) first if another
/// `Fields` still holds it. A snapshot fork of an ARMOR therefore copies
/// only the states its branch writes. An empty map holds no allocation.
///
/// # Examples
///
/// ```
/// use ree_armor::{Fields, Value};
/// let mut f = Fields::new();
/// f.set("restart_count", Value::U64(0));
/// assert_eq!(f.get("restart_count").and_then(|v| v.as_u64()), Some(0));
/// ```
pub struct Fields {
    /// The entries, shared with every clone until one side writes;
    /// `None` is the empty map.
    entries: Option<Arc<BTreeMap<String, Value>>>,
    /// No [`Fields::take_dirty`] since this map was made or last went
    /// through a mutating entry point.
    dirty: bool,
    /// Memoised `(align, has_misaligned_ptr(align))`; `None` after any
    /// mutation.
    ptr_verdict: Option<(u64, bool)>,
}

/// What a `Fields` without entries reads.
static EMPTY: BTreeMap<String, Value> = BTreeMap::new();

impl Default for Fields {
    fn default() -> Self {
        Fields { entries: None, dirty: true, ptr_verdict: None }
    }
}

impl Clone for Fields {
    fn clone(&self) -> Self {
        // The verdict is a function of the entries alone and travels.
        Fields { entries: self.entries.clone(), dirty: true, ptr_verdict: self.ptr_verdict }
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.map() == other.map()
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fields").field("entries", self.map()).finish()
    }
}

impl Fields {
    /// Creates empty state.
    pub fn new() -> Self {
        Fields::default()
    }

    /// True if `self` and `other` hold one allocation of entries.
    #[cfg(test)]
    pub(crate) fn shares_entries_with(&self, other: &Fields) -> bool {
        matches!((&self.entries, &other.entries), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Every read of `entries` goes through here.
    fn map(&self) -> &BTreeMap<String, Value> {
        self.entries.as_deref().unwrap_or(&EMPTY)
    }

    /// Every mutable path into `entries` goes through here: it marks the
    /// state, and unshares the map if a clone still holds it.
    fn touch(&mut self) -> &mut BTreeMap<String, Value> {
        self.dirty = true;
        self.ptr_verdict = None;
        Arc::make_mut(self.entries.get_or_insert_with(Arc::default))
    }

    /// Sets (inserting or replacing) a field. Replacing an existing
    /// field overwrites its slot without allocating a key.
    pub fn set(&mut self, name: impl Into<String> + AsRef<str>, value: Value) {
        let entries = self.touch();
        match entries.get_mut(name.as_ref()) {
            Some(slot) => *slot = value,
            None => {
                entries.insert(name.into(), value);
            }
        }
    }

    /// Reads a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map().get(name)
    }

    /// Mutable field access (marks the state dirty whether or not the
    /// caller goes on to change the value).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.touch().get_mut(name)
    }

    /// Removes a field. Removing an absent field changes nothing, so it
    /// neither marks the state dirty nor unshares it.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.get(name)?;
        self.touch().remove(name)
    }

    /// True unless [`Fields::take_dirty`] ran on this very map and no
    /// mutating entry point has since.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Reads and clears the dirty mark — called by whoever has just
    /// captured (or is about to capture) this state.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// [`Fields::has_misaligned_ptr`], memoised until the next mutation.
    pub fn ptr_fault(&mut self, align: u64) -> bool {
        match self.ptr_verdict {
            Some((a, verdict)) if a == align => verdict,
            _ => {
                let verdict = self.has_misaligned_ptr(align);
                self.ptr_verdict = Some((align, verdict));
                verdict
            }
        }
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True if no fields are present.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.map().iter().map(|(name, value)| (name.as_str(), value))
    }

    /// Unsigned-integer field helper.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(Value::as_u64)
    }

    /// Increments an integer field (creating it at 0), returning the new
    /// value, or `None` if the existing field is not an integer.
    pub fn bump(&mut self, name: &str) -> Option<u64> {
        let entries = self.touch();
        match entries.get_mut(name) {
            Some(Value::U64(v)) => {
                *v = v.wrapping_add(1);
                Some(*v)
            }
            Some(_) => None,
            None => {
                entries.insert(name.to_owned(), Value::U64(1));
                Some(1)
            }
        }
    }

    /// Enumerates the paths of all leaf values with their field kinds.
    /// Paths use `/` separators (`table/hostA`, `list/3`).
    ///
    /// Allocates one `String` per leaf — injection/debugging use only;
    /// per-event checks use the allocation-free walkers below.
    pub fn leaf_paths(&self) -> Vec<(String, FieldKind)> {
        let mut out = Vec::new();
        for (name, value) in self.map() {
            collect_leaves(name, value, &mut out);
        }
        out
    }

    /// Number of leaf values — the allocation-free size used by the wire
    /// model (previously built every path string just to count them).
    pub fn leaf_count(&self) -> usize {
        self.map().values().map(Value::leaf_count).sum()
    }

    /// True if any pointer-class leaf is misaligned with respect to
    /// `align` — the per-event structural-pointer fault check, walking
    /// the state without building paths.
    pub fn has_misaligned_ptr(&self, align: u64) -> bool {
        self.map().values().any(|v| v.has_misaligned_ptr(align))
    }

    /// True if [`Fields::flip_random_leaf`] with the same `want` would
    /// find a leaf to hit, without building paths.
    pub fn has_leaf(&self, want: Option<FieldKind>) -> bool {
        self.map().values().any(|v| v.has_leaf(want))
    }

    /// Flips one bit in a leaf selected uniformly among leaves matching
    /// `want` (or all leaves when `want` is `None`). Returns the path and
    /// kind of the leaf hit, or `None` if no matching leaf exists.
    pub fn flip_random_leaf(
        &mut self,
        rng: &mut SimRng,
        want: Option<FieldKind>,
    ) -> Option<(String, FieldKind)> {
        let leaves: Vec<(String, FieldKind)> = self
            .leaf_paths()
            .into_iter()
            .filter(|(_, k)| want.is_none() || want == Some(*k))
            .collect();
        if leaves.is_empty() {
            return None;
        }
        let (path, kind) = leaves[rng.index(leaves.len())].clone();
        let value = self.resolve_mut(&path)?;
        value.flip_bit(rng);
        Some((path, kind))
    }

    /// Resolves a `/`-separated leaf path to its value.
    pub fn resolve(&self, path: &str) -> Option<&Value> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut cur = self.map().get(first)?;
        for part in parts {
            cur = match cur {
                Value::List(items) => items.get(part.parse::<usize>().ok()?)?,
                Value::Map(map) => map.get(part)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Mutable variant of [`Fields::resolve`].
    pub fn resolve_mut(&mut self, path: &str) -> Option<&mut Value> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut cur = self.touch().get_mut(first)?;
        for part in parts {
            cur = match cur {
                Value::List(items) => items.get_mut(part.parse::<usize>().ok()?)?,
                Value::Map(map) => map.get_mut(part)?,
                _ => return None,
            };
        }
        Some(cur)
    }
}

fn collect_leaves(prefix: &str, value: &Value, out: &mut Vec<(String, FieldKind)>) {
    match value {
        Value::List(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_leaves(&format!("{prefix}/{i}"), item, out);
            }
        }
        Value::Map(map) => {
            for (k, v) in map {
                collect_leaves(&format!("{prefix}/{k}"), v, out);
            }
        }
        _ => out.push((prefix.to_owned(), value.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fields {
        let mut f = Fields::new();
        f.set("count", Value::U64(3));
        f.set("host", Value::Str("nodeA".into()));
        f.set("link", Value::Ptr(0xdead));
        let mut table = BTreeMap::new();
        table.insert("a".to_owned(), Value::U64(1));
        table.insert("b".to_owned(), Value::U64(2));
        f.set("table", Value::Map(table));
        f.set("list", Value::List(vec![Value::U64(15), Value::Bool(true)]));
        f
    }

    #[test]
    fn get_set_roundtrip() {
        let f = sample();
        assert_eq!(f.u64("count"), Some(3));
        assert_eq!(f.get("host").unwrap().as_str(), Some("nodeA"));
        assert_eq!(f.resolve("table/b").unwrap().as_u64(), Some(2));
        assert_eq!(f.resolve("list/1").unwrap().as_bool(), Some(true));
        assert!(f.resolve("list/9").is_none());
        assert!(f.resolve("count/x").is_none());
    }

    #[test]
    fn leaf_paths_enumerate_nested_leaves_with_kinds() {
        let f = sample();
        let leaves = f.leaf_paths();
        assert_eq!(leaves.len(), 7);
        let ptr_leaves: Vec<_> = leaves.iter().filter(|(_, k)| *k == FieldKind::Pointer).collect();
        assert_eq!(ptr_leaves.len(), 1);
        assert_eq!(ptr_leaves[0].0, "link");
    }

    #[test]
    fn flip_data_leaf_changes_state() {
        let mut f = sample();
        let before = f.clone();
        let mut rng = SimRng::new(1);
        let (path, kind) = f.flip_random_leaf(&mut rng, Some(FieldKind::Data)).unwrap();
        assert_eq!(kind, FieldKind::Data);
        assert_ne!(path, "link");
        assert_ne!(f, before, "a data flip must alter some leaf");
    }

    #[test]
    fn flip_pointer_leaf_targets_ptr() {
        let mut f = sample();
        let mut rng = SimRng::new(2);
        let (path, kind) = f.flip_random_leaf(&mut rng, Some(FieldKind::Pointer)).unwrap();
        assert_eq!(kind, FieldKind::Pointer);
        assert_eq!(path, "link");
        assert_ne!(f.resolve("link").unwrap().as_u64(), Some(0xdead));
    }

    #[test]
    fn flip_on_empty_target_returns_none() {
        let mut f = Fields::new();
        f.set("x", Value::U64(1));
        let mut rng = SimRng::new(3);
        assert!(f.flip_random_leaf(&mut rng, Some(FieldKind::Pointer)).is_none());
    }

    type Step = fn(&mut Fields);

    /// One call of each mutating entry point, each valid on [`sample`].
    const MUTATIONS: [(&str, Step); 6] = [
        ("set", |f| f.set("count", Value::U64(3))),
        ("get_mut", |f| assert!(f.get_mut("count").is_some())),
        ("remove", |f| assert!(f.remove("host").is_some())),
        ("bump", |f| assert!(f.bump("count").is_some())),
        ("resolve_mut", |f| assert!(f.resolve_mut("table/a").is_some())),
        ("flip_random_leaf", |f| assert!(f.flip_random_leaf(&mut SimRng::new(9), None).is_some())),
    ];

    #[test]
    fn every_mutating_entry_point_marks_dirty_and_reads_do_not() {
        let mut f = sample();
        assert!(f.take_dirty(), "construction set fields");
        let _ = (f.get("count"), f.u64("count"), f.resolve("table/a"), f.iter().count());
        let _ = (f.leaf_paths(), f.leaf_count(), f.has_leaf(None), f.has_misaligned_ptr(4096));
        assert!(!f.is_dirty(), "reads leave the state clean");
        for (name, step) in MUTATIONS {
            step(&mut f);
            assert!(f.take_dirty(), "{name} must mark the state dirty");
            assert!(!f.is_dirty(), "take_dirty clears the mark");
        }
    }

    #[test]
    fn a_clone_shares_entries_until_a_mutating_entry_point_runs() {
        assert!(Fields::new().entries.is_none(), "an empty map holds no Arc");
        let original = sample();
        let image = crate::wire::encode_fields(&original);
        for (name, step) in MUTATIONS {
            let mut copy = original.clone();
            let _ = (copy.get("count"), copy.resolve("table/a"), copy.leaf_paths());
            let _ = copy.ptr_fault(4096);
            assert!(original.shares_entries_with(&copy), "{name}: a clone shares until written");
            step(&mut copy);
            assert!(!original.shares_entries_with(&copy), "{name} must unshare");
            assert_eq!(original, sample(), "{name} wrote through to the original");
            assert_eq!(crate::wire::encode_fields(&original), image, "{name}: original's encoding");
        }
    }

    #[test]
    fn removing_an_absent_field_neither_dirties_nor_unshares() {
        let mut f = sample();
        f.take_dirty();
        let original = f.clone();
        assert_eq!(f.remove("no-such-field"), None);
        assert!(!f.is_dirty(), "nothing changed, nothing to checkpoint");
        assert!(original.shares_entries_with(&f), "nothing changed, nothing to copy");
        let mut empty = Fields::new();
        empty.take_dirty();
        assert_eq!(empty.remove("x"), None);
        assert!(!empty.is_dirty() && empty.entries.is_none());
    }

    #[test]
    fn cached_pointer_verdict_is_dropped_by_any_mutation() {
        let mut f = sample();
        // A flip that lands on the pointer must be seen by the next ask
        // (a flip of a high bit keeps the alignment; most do not).
        let mut faulted = 0;
        for seed in 0..32 {
            f.set("link", Value::Ptr(2 * 4096));
            assert!(!f.ptr_fault(4096));
            f.flip_random_leaf(&mut SimRng::new(seed), Some(FieldKind::Pointer)).unwrap();
            assert_eq!(f.ptr_fault(4096), f.has_misaligned_ptr(4096), "stale verdict, seed {seed}");
            faulted += u32::from(f.ptr_fault(4096));
        }
        assert!(faulted > 0, "no flip misaligned the pointer");
        // Nested pointers, reached through `get_mut`.
        f.set("link", Value::Ptr(4096));
        assert!(!f.ptr_fault(4096));
        if let Some(Value::Map(table)) = f.get_mut("table") {
            table.insert("p".into(), Value::Ptr(7));
        }
        assert!(f.ptr_fault(4096));
        assert!(!f.ptr_fault(1), "the verdict is per alignment");
    }

    #[test]
    fn bookkeeping_is_invisible_to_equality_and_debug() {
        let mut a = sample();
        let b = sample();
        a.take_dirty();
        a.ptr_fault(4096);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn new_maps_and_clones_are_born_dirty() {
        assert!(Fields::new().is_dirty());
        let mut captured = sample();
        captured.take_dirty();
        assert!(captured.clone().is_dirty(), "a clone was captured by nobody");
        assert!(!captured.is_dirty());
    }

    #[test]
    fn bump_counts() {
        let mut f = Fields::new();
        assert_eq!(f.bump("n"), Some(1));
        assert_eq!(f.bump("n"), Some(2));
        f.set("s", Value::Str("x".into()));
        assert_eq!(f.bump("s"), None);
    }

    #[test]
    fn str_flip_keeps_valid_utf8() {
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            let mut v = Value::Str("hostname-17".into());
            v.flip_bit(&mut rng);
            if let Value::Str(s) = &v {
                assert!(std::str::from_utf8(s.as_bytes()).is_ok());
            }
        }
    }

    #[test]
    fn ptr_is_pointer_kind_everything_else_data() {
        assert_eq!(Value::Ptr(0).kind(), FieldKind::Pointer);
        assert_eq!(Value::U64(0).kind(), FieldKind::Data);
        assert_eq!(Value::Str(String::new()).kind(), FieldKind::Data);
    }
}
