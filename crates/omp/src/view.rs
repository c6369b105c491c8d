//! Typed views handed to kernel bodies.
//!
//! A loop body runs against *views*, not raw buffers: on a worker node it
//! only has the partition of each variable that its tile touches, plus a
//! base offset translating global element indices to local positions. The
//! same body code therefore runs unchanged on the host device (views over
//! whole buffers, base 0) and inside a Spark-style task (views over
//! deserialized partitions) — mirroring how OmpCloud runs the identical
//! native function through JNI on every target.

use crate::erased::{ErasedSlice, ErasedVec, RedOp};
use crate::pod::{Pod, TypeTag};
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

/// A name's *word*: its length (saturated at 255) in the top byte above
/// its first seven bytes, little-endian. Two names of at most seven bytes
/// are equal exactly when their words are; a longer name's length byte
/// is at least 8, so its word never equals a short name's. Built from at
/// most two overlapping loads, not a loop over the bytes, and folded to a
/// constant for a literal name.
#[inline(always)]
fn name_word(name: &str) -> u64 {
    let b = name.as_bytes();
    let n = b.len();
    let head = if n >= 8 {
        u64::from_le_bytes(b[..8].try_into().expect("eight bytes")) & (u64::MAX >> 8)
    } else if n >= 4 {
        let lo = u32::from_le_bytes(b[..4].try_into().expect("four bytes"));
        let hi = u32::from_le_bytes(b[n - 4..].try_into().expect("four bytes"));
        u64::from(lo) | u64::from(hi) << (8 * (n - 4))
    } else if n >= 2 {
        let lo = u16::from_le_bytes([b[0], b[1]]);
        let hi = u16::from_le_bytes([b[n - 2], b[n - 1]]);
        u64::from(lo) | u64::from(hi) << (8 * (n - 2))
    } else if n == 1 {
        u64::from(b[0])
    } else {
        0
    };
    head | (n.min(255) as u64) << 56
}

/// Name → variable table of one tile: filled once per tile, read by the
/// body on every iteration. An open-addressed power-of-two slot array,
/// at most half full, keyed by [`name_word`]: a lookup multiplies the
/// word once, takes the top bits as the home slot and probes linearly
/// from there. For a name of seven bytes or fewer a matching word is the
/// match; a longer name compares its bytes after its word matches.
/// Names come from the program's own map clauses, never from the wire,
/// so the multiply needs no key (DESIGN §5).
#[derive(Debug, Clone)]
struct VarTable<V> {
    slots: Vec<Option<Entry<V>>>,
    len: usize,
    /// `64 - log2(slots.len())`. The empty table has no slots, and any
    /// home slot misses it.
    shift: u32,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    word: u64,
    name: String,
    value: V,
}

impl<V> Default for VarTable<V> {
    fn default() -> Self {
        VarTable {
            slots: Vec::new(),
            len: 0,
            shift: 63,
        }
    }
}

impl<V> VarTable<V> {
    /// Home slot of a name. Longer names that share their first seven
    /// bytes share a word; their last eight bytes spread them apart.
    #[inline(always)]
    fn home(&self, word: u64, name: &str) -> usize {
        let b = name.as_bytes();
        let tail = match b.len().checked_sub(8) {
            Some(at) => u64::from_le_bytes(b[at..].try_into().expect("eight bytes")),
            None => 0,
        };
        ((word ^ tail).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Slot holding `name`, if any.
    #[inline(always)]
    fn find(&self, name: &str) -> Option<usize> {
        let word = name_word(name);
        let mut at = self.home(word, name);
        loop {
            let entry = self.slots.get(at)?.as_ref()?;
            if entry.word == word && (name.len() < 8 || entry.name == name) {
                return Some(at);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    #[inline(always)]
    fn get(&self, name: &str) -> Option<&V> {
        let at = self.find(name)?;
        self.slots[at].as_ref().map(|entry| &entry.value)
    }

    #[inline(always)]
    fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        let at = self.find(name)?;
        self.slots[at].as_mut().map(|entry| &mut entry.value)
    }

    /// Register `name`, replacing an earlier entry of the same name.
    fn insert(&mut self, name: String, value: V) {
        if let Some(held) = self.get_mut(&name) {
            *held = value;
            return;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            let slots = (2 * self.slots.len()).max(4);
            let old = std::mem::replace(
                &mut self.slots,
                std::iter::repeat_with(|| None).take(slots).collect(),
            );
            self.shift = 64 - slots.trailing_zeros();
            old.into_iter()
                .flatten()
                .for_each(|entry| self.place(entry));
        }
        let word = name_word(&name);
        self.place(Entry { word, name, value });
        self.len += 1;
    }

    /// Put `entry` in the first free slot from its home.
    fn place(&mut self, entry: Entry<V>) {
        let mut at = self.home(entry.word, &entry.name);
        while self.slots[at].is_some() {
            at = (at + 1) & (self.slots.len() - 1);
        }
        self.slots[at] = Some(entry);
    }

    fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .slots
            .iter()
            .flatten()
            .map(|e| e.name.as_str())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Out of line, so an inlined `view`/`view_mut` carries a call, not the
/// message's formatting.
#[cold]
fn mistyped(verb: &str, name: &str, asked: TypeTag, holds: TypeTag) -> ! {
    panic!("kernel {verb} variable '{name}' as {asked} but it holds {holds}")
}

/// The one failure of `slice`/`slice_mut`, out of line like [`mistyped`].
#[cold]
fn outside(verb: &str, asked: Range<usize>, partition: &str, base: usize, len: usize) -> ! {
    panic!(
        "kernel {verb} global elements [{}, {}) outside its {partition} [{base}, {})",
        asked.start,
        asked.end,
        base + len
    )
}

/// Read-only variables visible to a loop body.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    vars: VarTable<InputVar>,
}

#[derive(Debug, Clone)]
struct InputVar {
    base: usize,
    data: ErasedSlice,
}

impl Inputs {
    /// Empty input set.
    pub fn new() -> Self {
        Inputs::default()
    }

    /// Register a variable view starting at global element `base`,
    /// covering the whole of `data`.
    pub fn add(&mut self, name: impl Into<String>, base: usize, data: Arc<ErasedVec>) {
        self.add_slice(name, base, ErasedSlice::full(data));
    }

    /// Register a zero-copy range view starting at global element `base`.
    pub fn add_slice(&mut self, name: impl Into<String>, base: usize, data: ErasedSlice) {
        self.vars.insert(name.into(), InputVar { base, data });
    }

    /// Typed view of `name`.
    ///
    /// Panics on unknown names or element-type mismatches — inside an
    /// offloaded kernel this is the moral equivalent of a native-code
    /// fault, and the executor catches it at task granularity.
    ///
    /// Inlined into the body so that a literal `name`'s word and home
    /// slot fold to constants: what is left per call is one load and
    /// compare of the slot's word and the tag/range check of the typed
    /// slice.
    #[inline(always)]
    pub fn view<T: Pod>(&self, name: &str) -> VarView<'_, T> {
        let var = self
            .vars
            .get(name)
            .unwrap_or_else(|| panic!("kernel read unmapped variable '{name}'"));
        let data = var
            .data
            .as_slice::<T>()
            .unwrap_or_else(|| mistyped("read", name, T::TAG, var.data.tag()));
        VarView {
            base: var.base,
            data,
        }
    }

    /// Names of all registered variables (test/debug helper).
    pub fn names(&self) -> Vec<&str> {
        self.vars.names()
    }
}

/// Read-only view of (part of) a variable, indexed with *global* element
/// indices.
#[derive(Debug, Clone, Copy)]
pub struct VarView<'a, T> {
    base: usize,
    data: &'a [T],
}

impl<'a, T: Pod> VarView<'a, T> {
    /// Global index of the first visible element.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw local slice (element `0` is global `base()`).
    pub fn local(&self) -> &'a [T] {
        self.data
    }

    /// Element at global index `g`.
    #[inline]
    pub fn get(&self, g: usize) -> T {
        self[g]
    }

    /// The elements at global indices `range` as a plain slice: one
    /// translation and one range check for the whole run, where indexing
    /// pays both per element (and keeps the loop from vectorizing).
    /// Panics like indexing when any of `range` lies outside the
    /// partition, or when it is reversed.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> &'a [T] {
        // A start below `base` wraps past every valid end, so `get`
        // refuses it as it refuses a reversed or overlong range.
        let local = range.start.wrapping_sub(self.base)..range.end.wrapping_sub(self.base);
        let Some(run) = self.data.get(local) else {
            outside("read", range, "partition", self.base, self.data.len())
        };
        run
    }
}

impl<'a, T: Pod> Index<usize> for VarView<'a, T> {
    type Output = T;

    #[inline]
    fn index(&self, g: usize) -> &T {
        let local = g.wrapping_sub(self.base);
        self.data.get(local).unwrap_or_else(|| {
            panic!(
                "kernel read global element {g} outside its partition [{}, {})",
                self.base,
                self.base + self.data.len()
            )
        })
    }
}

/// Writable variables visible to a loop body (the task's private output
/// buffers, later merged by the driver, and its `map(alloc:)` scratch).
/// Each starts as a recipe and is built on the body's first `view_mut`
/// of it, so an output the body never borrows costs no buffer and leaves
/// no part; scratch never leaves a part.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    vars: VarTable<OutputVar>,
}

#[derive(Debug, Clone)]
struct OutputVar {
    base: usize,
    /// What the first `view_mut` builds `data` from.
    init: OutInit,
    data: Option<ErasedVec>,
    /// `map(alloc:)` scratch: private to the chunk, never a part.
    scratch: bool,
}

/// How a private output buffer starts.
#[derive(Debug, Clone)]
pub enum OutInit {
    /// `len` identities of the operator, of element type `tag` (zero
    /// bits for [`RedOp::BitOr`]).
    Identity(TypeTag, usize, RedOp),
    /// A copy of these elements: the hull of a `tofrom` original, whose
    /// elements the body does not write must keep their values.
    Copy(ErasedSlice),
    /// This buffer as it is.
    Buffer(ErasedVec),
}

impl OutInit {
    /// Build the buffer this recipe describes, leaving an empty recipe
    /// behind. Out of line: each buffer is built once.
    #[cold]
    #[inline(never)]
    pub(crate) fn build(&mut self) -> ErasedVec {
        match std::mem::replace(self, OutInit::Identity(TypeTag::U8, 0, RedOp::BitOr)) {
            OutInit::Identity(tag, len, op) => ErasedVec::identity(tag, len, op),
            OutInit::Copy(slice) => slice.to_vec(),
            OutInit::Buffer(data) => data,
        }
    }
}

impl From<ErasedVec> for OutInit {
    fn from(data: ErasedVec) -> OutInit {
        OutInit::Buffer(data)
    }
}

impl Outputs {
    /// Empty output set.
    pub fn new() -> Self {
        Outputs::default()
    }

    /// Register a private output covering global elements
    /// `[base, base + len)`: a given buffer (an [`ErasedVec`]) or a
    /// recipe. Either way it becomes a part only once the body borrows
    /// it.
    pub fn add(&mut self, name: impl Into<String>, base: usize, init: impl Into<OutInit>) {
        let (init, data, scratch) = (init.into(), None, false);
        let var = OutputVar {
            base,
            init,
            data,
            scratch,
        };
        self.vars.insert(name.into(), var);
    }

    /// Register `map(alloc:)` scratch: zero bits the shape of the whole
    /// variable `like`, which the body borrows like an output but which
    /// never becomes a part.
    pub(crate) fn add_scratch(&mut self, name: &str, like: &ErasedVec) {
        let zeroed = OutInit::Identity(like.tag(), like.len(), RedOp::BitOr);
        self.add(name, 0, zeroed);
        self.vars.get_mut(name).expect("just added").scratch = true;
    }

    /// Typed mutable view of `name`. Panics like [`Inputs::view`]. The
    /// first call for a name builds its buffer.
    #[inline(always)]
    pub fn view_mut<T: Pod>(&mut self, name: &str) -> VarViewMut<'_, T> {
        let var = self
            .vars
            .get_mut(name)
            .unwrap_or_else(|| panic!("kernel wrote unmapped variable '{name}'"));
        let base = var.base;
        let data = var.data.get_or_insert_with(|| var.init.build());
        let tag = data.tag();
        let data = data
            .as_mut_slice::<T>()
            .unwrap_or_else(|| mistyped("wrote", name, T::TAG, tag));
        VarViewMut { base, data }
    }

    /// Consume into [`OutPart`]s for merging, sorted by name for
    /// determinism: one per output the body borrowed. Scratch is dropped
    /// here, on the chunk's side.
    pub fn into_parts(self) -> Vec<OutPart> {
        let mut parts: Vec<OutPart> = self
            .vars
            .slots
            .into_iter()
            .flatten()
            .filter_map(|entry| {
                Some(OutPart {
                    data: entry.value.data.filter(|_| !entry.value.scratch)?,
                    name: entry.name,
                    base: entry.value.base,
                })
            })
            .collect();
        parts.sort_by(|a, b| a.name.cmp(&b.name));
        parts
    }

    /// Names of all registered outputs, borrowed or not.
    pub fn names(&self) -> Vec<&str> {
        self.vars.names()
    }
}

/// One private output buffer the body borrowed, ready for driver-side
/// merging.
#[derive(Debug, Clone)]
pub struct OutPart {
    /// Variable name.
    pub name: String,
    /// Global element index of the buffer's first element.
    pub base: usize,
    /// The private buffer.
    pub data: ErasedVec,
}

/// Mutable view of (part of) an output variable, indexed with *global*
/// element indices.
#[derive(Debug)]
pub struct VarViewMut<'a, T> {
    base: usize,
    data: &'a mut [T],
}

impl<'a, T: Pod> VarViewMut<'a, T> {
    /// Global index of the first visible element.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `v` at global index `g`.
    #[inline]
    pub fn set(&mut self, g: usize, v: T) {
        self[g] = v;
    }

    /// Read back the currently written value at global index `g`.
    #[inline]
    pub fn get(&self, g: usize) -> T {
        self[g]
    }

    /// Read-modify-write at global index `g` (accumulation idiom for
    /// reduction variables).
    #[inline]
    pub fn update(&mut self, g: usize, f: impl FnOnce(T) -> T) {
        let v = self[g];
        self[g] = f(v);
    }

    /// The raw local mutable slice.
    pub fn local_mut(&mut self) -> &mut [T] {
        self.data
    }

    /// The elements at global indices `range` as a plain mutable slice;
    /// checked once and panicking like [`VarView::slice`].
    #[inline]
    pub fn slice_mut(&mut self, range: Range<usize>) -> &mut [T] {
        let (base, len) = (self.base, self.data.len());
        let local = range.start.wrapping_sub(base)..range.end.wrapping_sub(base);
        let Some(run) = self.data.get_mut(local) else {
            outside("wrote", range, "output partition", base, len)
        };
        run
    }
}

impl<'a, T: Pod> Index<usize> for VarViewMut<'a, T> {
    type Output = T;

    #[inline]
    fn index(&self, g: usize) -> &T {
        let local = g.wrapping_sub(self.base);
        let len = self.data.len();
        self.data.get(local).unwrap_or_else(|| {
            panic!(
                "kernel accessed global element {g} outside its output partition [{}, {})",
                self.base,
                self.base + len
            )
        })
    }
}

impl<'a, T: Pod> IndexMut<usize> for VarViewMut<'a, T> {
    #[inline]
    fn index_mut(&mut self, g: usize) -> &mut T {
        let local = g.wrapping_sub(self.base);
        let (base, len) = (self.base, self.data.len());
        self.data.get_mut(local).unwrap_or_else(|| {
            panic!(
                "kernel wrote global element {g} outside its output partition [{}, {})",
                base,
                base + len
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_view_translates_global_indices() {
        let mut ins = Inputs::new();
        ins.add(
            "A",
            10,
            Arc::new(ErasedVec::from_vec(vec![5.0f32, 6.0, 7.0])),
        );
        let a = ins.view::<f32>("A");
        assert_eq!(a.base(), 10);
        assert_eq!(a[10], 5.0);
        assert_eq!(a[12], 7.0);
        assert_eq!(a.get(11), 6.0);
    }

    #[test]
    #[should_panic(expected = "kernel read global element 9 outside its partition [10, 11)")]
    fn input_view_oob_panics() {
        let mut ins = Inputs::new();
        ins.add("A", 10, Arc::new(ErasedVec::from_vec(vec![5.0f32])));
        let _ = ins.view::<f32>("A")[9];
    }

    #[test]
    #[should_panic(expected = "kernel read unmapped variable 'missing'")]
    fn unknown_input_panics() {
        let ins = Inputs::new();
        let _ = ins.view::<f32>("missing");
    }

    #[test]
    #[should_panic(expected = "kernel read variable 'A' as i32 but it holds f32")]
    fn wrong_type_panics() {
        let mut ins = Inputs::new();
        ins.add("A", 0, Arc::new(ErasedVec::from_vec(vec![5.0f32])));
        let _ = ins.view::<i32>("A");
    }

    #[test]
    #[should_panic(expected = "kernel wrote unmapped variable 'missing'")]
    fn unknown_output_panics() {
        let _ = Outputs::new().view_mut::<f32>("missing");
    }

    #[test]
    #[should_panic(expected = "kernel wrote variable 'C' as f64 but it holds f32")]
    fn wrong_output_type_panics() {
        let mut outs = Outputs::new();
        outs.add("C", 0, ErasedVec::from_vec(vec![0.0f32]));
        let _ = outs.view_mut::<f64>("C");
    }

    #[test]
    #[should_panic(expected = "kernel wrote global element 6 outside its output partition [4, 6)")]
    fn output_view_oob_write_panics() {
        let mut outs = Outputs::new();
        outs.add("C", 4, ErasedVec::from_vec(vec![0.0f32; 2]));
        outs.view_mut::<f32>("C")[6] = 1.0;
    }

    #[test]
    #[should_panic(
        expected = "kernel accessed global element 3 outside its output partition [4, 6)"
    )]
    fn output_view_oob_read_panics() {
        let mut outs = Outputs::new();
        outs.add("C", 4, ErasedVec::from_vec(vec![0.0f32; 2]));
        let _ = outs.view_mut::<f32>("C").get(3);
    }

    /// `A` = [5, 6, 7] at globals [10, 13), as an input and as an output.
    fn tables_at_10() -> (Inputs, Outputs) {
        let mut ins = Inputs::new();
        ins.add(
            "A",
            10,
            Arc::new(ErasedVec::from_vec(vec![5.0f32, 6.0, 7.0])),
        );
        let mut outs = Outputs::new();
        outs.add("A", 10, ErasedVec::from_vec(vec![5.0f32, 6.0, 7.0]));
        (ins, outs)
    }

    #[test]
    fn slices_translate_a_global_range_once() {
        let (ins, mut outs) = tables_at_10();
        let a = ins.view::<f32>("A");
        let mut c = outs.view_mut::<f32>("A");
        // The whole hull, a part of it, and the empty range at either edge.
        assert_eq!(a.slice(10..13), &[5.0, 6.0, 7.0]);
        assert_eq!(a.slice(11..13), &[6.0, 7.0]);
        assert!(a.slice(10..10).is_empty() && a.slice(13..13).is_empty());
        assert_eq!(c.slice_mut(10..13), &mut [5.0, 6.0, 7.0]);
        assert!(c.slice_mut(10..10).is_empty() && c.slice_mut(13..13).is_empty());
        c.slice_mut(11..13).fill(0.5);
        assert_eq!(c.slice_mut(10..13), &mut [5.0, 0.5, 0.5]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // reversed on purpose
    fn slices_outside_the_partition_panic_naming_range_and_partition() {
        let message = |range: Range<usize>, write: bool| -> String {
            let (ins, mut outs) = tables_at_10();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if write {
                    outs.view_mut::<f32>("A").slice_mut(range).len()
                } else {
                    ins.view::<f32>("A").slice(range).len()
                }
            }));
            *caught.unwrap_err().downcast::<String>().unwrap()
        };
        for range in [
            9..11,          // straddles the lower edge
            12..14,         // straddles the upper edge
            3..12,          // start below `base`: the subtraction wraps
            3..5,           // both ends below `base`, both wrap
            9..9,           // empty, but below the partition
            14..14,         // empty, but past it
            12..11,         // reversed
            13..10,         // reversed, hull edge to hull edge
            10..usize::MAX, // an end no partition reaches
            usize::MAX..usize::MAX,
        ] {
            let asked = format!("[{}, {})", range.start, range.end);
            assert_eq!(
                message(range.clone(), false),
                format!("kernel read global elements {asked} outside its partition [10, 13)")
            );
            assert_eq!(
                message(range, true),
                format!(
                    "kernel wrote global elements {asked} outside its output partition [10, 13)"
                )
            );
        }
    }

    /// An input and an output table over `names`, entry `k` holding the
    /// one element `k` at global index `k`, registered in `order`.
    fn tables(names: &[String], order: impl Iterator<Item = usize>) -> (Inputs, Outputs) {
        let (mut ins, mut outs) = (Inputs::new(), Outputs::new());
        for k in order {
            let one = Arc::new(ErasedVec::from_vec(vec![k as u32]));
            ins.add(names[k].clone(), k, one);
            outs.add(
                names[k].clone(),
                k,
                OutInit::Identity(TypeTag::U64, 1, RedOp::Sum),
            );
        }
        (ins, outs)
    }

    /// Every name resolves to its own entry in both tables, and the
    /// outputs come back name-sorted, one per name borrowed.
    fn assert_each_resolves(names: &[String], (ins, mut outs): (Inputs, Outputs)) {
        for (k, name) in names.iter().enumerate() {
            let v = ins.view::<u32>(name);
            assert_eq!((v.base(), v[k]), (k, k as u32), "{name}");
            outs.view_mut::<u64>(name)[k] = 7 * k as u64;
        }
        let mut sorted: Vec<&str> = names.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        assert_eq!(ins.names(), sorted);
        assert_eq!(outs.names(), sorted);
        let parts = outs.into_parts();
        let got: Vec<&str> = parts.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(got, sorted);
        for part in &parts {
            let k = names.iter().position(|n| *n == part.name).unwrap();
            assert_eq!(part.base, k);
            assert_eq!(part.data.as_slice::<u64>().unwrap(), &[7 * k as u64]);
        }
    }

    #[test]
    fn a_word_is_the_length_over_the_first_seven_bytes() {
        assert_eq!(name_word(""), 0);
        assert_eq!(name_word("x"), 1 << 56 | 0x78);
        assert_eq!(name_word("ab"), 2 << 56 | 0x6261);
        assert_eq!(name_word("abc"), 3 << 56 | 0x63_6261);
        assert_eq!(name_word("abcdefg"), 7 << 56 | 0x67_6665_6463_6261);
        assert_eq!(name_word("abcdefgh"), 8 << 56 | 0x67_6665_6463_6261);
        assert_eq!(name_word(&"a".repeat(300)) >> 56, 255);
        // Every length from 1 to 7 bytes: the word holds each byte once,
        // at its place, so it equals the byte-by-byte packing.
        let bytes = "qRs_9tU";
        for n in 1..=7 {
            let packed = bytes.as_bytes()[..n]
                .iter()
                .enumerate()
                .fold((n as u64) << 56, |w, (i, &b)| w | u64::from(b) << (8 * i));
            assert_eq!(name_word(&bytes[..n]), packed, "{n} bytes");
        }
    }

    #[test]
    fn names_of_one_to_seven_bytes_each_resolve_to_their_own_buffer() {
        // All lengths, names differing only in their last byte or only
        // in length ("x" and "x0" share a first byte: one is a prefix).
        let mut names: Vec<String> = vec!["x".into(), "x0".into(), "x00".into(), "y".into()];
        for n in 1..=7 {
            for last in ['a', 'b', '0'] {
                names.push(format!("{}{last}", "v".repeat(n - 1)));
            }
        }
        names.sort();
        names.dedup();
        assert_each_resolves(&names, tables(&names, 0..names.len()));
    }

    #[test]
    fn long_names_that_share_their_first_seven_bytes_compare_their_bytes() {
        // One word for all of them: "column_" and the same length.
        let names: Vec<String> = (0..40).map(|k| format!("column_{k:03}")).collect();
        assert!(names.iter().all(|n| name_word(n) == name_word(&names[0])));
        // A prefix of another, past the word: "column_0" and "column_00".
        let mut with_prefixes = names.clone();
        with_prefixes.extend(["column_0".to_string(), "column_00".to_string()]);
        assert_each_resolves(&names, tables(&names, 0..names.len()));
        let n = with_prefixes.len();
        assert_each_resolves(&with_prefixes, tables(&with_prefixes, (0..n).rev()));
    }

    #[test]
    fn thirty_three_names_resolve_alike_in_either_insertion_order() {
        let mut names: Vec<String> = (0..32).map(|k| format!("x{k:02}")).collect();
        names.push("y".into());
        let forward = tables(&names, 0..33);
        let shuffled = tables(&names, (0..33).map(|k| k * 7 % 33));
        assert_each_resolves(&names, forward);
        assert_each_resolves(&names, shuffled);
    }

    #[test]
    fn ten_thousand_names_each_resolve_to_their_own_buffer() {
        // Nine bytes each, so a hundred names share each word and only
        // their last bytes tell them apart.
        let names: Vec<String> = (0..10_000).map(|k| format!("var_{k:05}")).collect();
        let words: std::collections::HashSet<u64> = names.iter().map(|n| name_word(n)).collect();
        assert_eq!(words.len(), 100);
        assert_each_resolves(&names, tables(&names, 0..names.len()));
    }

    #[test]
    fn re_adding_a_name_replaces_the_earlier_entry() {
        let mut ins = Inputs::new();
        ins.add("A", 0, Arc::new(ErasedVec::from_vec(vec![1.0f32])));
        ins.add("A", 5, Arc::new(ErasedVec::from_vec(vec![2u8, 3])));
        assert_eq!(ins.names(), vec!["A"]);
        let a = ins.view::<u8>("A");
        assert_eq!((a.base(), a.len(), a[6]), (5, 2, 3));

        let mut outs = Outputs::new();
        outs.add("C", 0, ErasedVec::from_vec(vec![0.0f32; 4]));
        outs.view_mut::<f32>("C")[0] = 1.0;
        outs.add("C", 2, ErasedVec::from_vec(vec![0i32; 2]));
        assert_eq!(outs.names(), vec!["C"]);
        // The replacement was never borrowed: no part, not the old one.
        assert!(outs.clone().into_parts().is_empty());
        outs.view_mut::<i32>("C")[3] = 9;
        let parts = outs.into_parts();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].base, 2);
        assert_eq!(parts[0].data.as_slice::<i32>().unwrap(), &[0, 9]);
    }

    #[test]
    fn add_slice_views_a_shared_buffer_range() {
        let buf = Arc::new(ErasedVec::from_vec(
            (0..8).map(|i| i as f32).collect::<Vec<_>>(),
        ));
        let mut ins = Inputs::new();
        ins.add_slice("A", 2, ErasedSlice::new(Arc::clone(&buf), 2..6));
        let a = ins.view::<f32>("A");
        assert_eq!(a.base(), 2);
        assert_eq!(a.len(), 4);
        assert_eq!(a[2], 2.0);
        assert_eq!(a[5], 5.0);
    }

    #[test]
    fn output_view_set_update_roundtrip() {
        let mut outs = Outputs::new();
        outs.add("C", 4, ErasedVec::from_vec(vec![0.0f32; 4]));
        {
            let mut c = outs.view_mut::<f32>("C");
            c.set(4, 1.0);
            c[5] = 2.0;
            c.update(5, |v| v * 10.0);
        }
        let parts = outs.into_parts();
        assert_eq!(parts.len(), 1);
        let part = &parts[0];
        assert_eq!(part.name, "C");
        assert_eq!(part.base, 4);
        assert_eq!(part.data.as_slice::<f32>().unwrap(), &[1.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn into_parts_is_name_sorted() {
        let mut outs = Outputs::new();
        outs.add("Z", 0, ErasedVec::from_vec(vec![0u8]));
        outs.add("A", 0, ErasedVec::from_vec(vec![0u8]));
        outs.view_mut::<u8>("Z");
        outs.view_mut::<u8>("A");
        let names: Vec<String> = outs.into_parts().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["A", "Z"]);
    }

    #[test]
    fn an_output_the_body_never_borrows_leaves_no_part() {
        let original = Arc::new(ErasedVec::from_vec(vec![1.0f32, 2.0, 3.0, 4.0]));
        let mut outs = Outputs::new();
        outs.add("written", 0, OutInit::Identity(TypeTag::F32, 2, RedOp::Max));
        outs.add("ignored", 0, ErasedVec::from_vec(vec![0.0f32; 2]));
        outs.add("hull", 1, OutInit::Copy(ErasedSlice::new(original, 1..3)));
        outs.add(
            "never",
            0,
            OutInit::Identity(TypeTag::U8, 1 << 20, RedOp::Sum),
        );
        outs.view_mut::<f32>("written").set(0, 1.0);
        outs.view_mut::<f32>("hull").set(2, 9.0);
        assert_eq!(outs.names(), vec!["hull", "ignored", "never", "written"]);
        let parts = outs.into_parts();
        let got: Vec<(&str, usize)> = parts.iter().map(|p| (p.name.as_str(), p.base)).collect();
        assert_eq!(got, vec![("hull", 1), ("written", 0)]);
        // Built from the recipe: the hull copy, and the identity.
        assert_eq!(parts[0].data.as_slice::<f32>().unwrap(), &[2.0, 9.0]);
        assert_eq!(
            parts[1].data.as_slice::<f32>().unwrap(),
            &[1.0, f32::NEG_INFINITY]
        );
    }

    #[test]
    #[should_panic(expected = "kernel read unmapped variable 'column_041'")]
    fn an_unknown_long_name_panics_like_a_short_one() {
        let names: Vec<String> = (0..40).map(|k| format!("column_{k:03}")).collect();
        let (ins, _) = tables(&names, 0..40);
        let _ = ins.view::<u32>("column_041");
    }

    #[test]
    #[should_panic(expected = "kernel wrote variable 'column_007' as f32 but it holds u64")]
    fn a_mistyped_long_output_panics_with_its_name() {
        let names: Vec<String> = (0..40).map(|k| format!("column_{k:03}")).collect();
        let (_, mut outs) = tables(&names, 0..40);
        let _ = outs.view_mut::<f32>("column_007");
    }
}
