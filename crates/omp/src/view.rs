//! Typed views handed to kernel bodies.
//!
//! A loop body runs against *views*, not raw buffers: on a worker node it
//! only has the partition of each variable that its tile touches, plus a
//! base offset translating global element indices to local positions. The
//! same body code therefore runs unchanged on the host device (views over
//! whole buffers, base 0) and inside a Spark-style task (views over
//! deserialized partitions) — mirroring how OmpCloud runs the identical
//! native function through JNI on every target.

use crate::erased::{ErasedSlice, ErasedVec};
use crate::pod::{Pod, TypeTag};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

/// Name → variable table of one tile: filled once per tile, read by the
/// body on every iteration. Names come from the program's own map
/// clauses, never from the wire, so nobody can craft colliding ones and
/// the hash needs no key: FNV-1a instead of `HashMap`'s default SipHash,
/// which cost more than the arithmetic of the loop body behind it.
type VarTable<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// FNV-1a over the bytes of a variable name.
struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
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
    /// Inlined into the body so that a literal `name` hashes and compares
    /// at compile time: what is left per call is the probe and the
    /// tag/range check of the typed slice.
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
        let mut v: Vec<&str> = self.vars.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
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
/// buffers, later merged by the driver).
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    vars: VarTable<OutputVar>,
}

#[derive(Debug, Clone)]
struct OutputVar {
    base: usize,
    data: ErasedVec,
    /// Whether the body ever asked for a mutable view — loops in a
    /// multi-loop region may leave some mapped outputs untouched, and the
    /// driver must not overwrite those with identity buffers.
    touched: bool,
}

impl Outputs {
    /// Empty output set.
    pub fn new() -> Self {
        Outputs::default()
    }

    /// Register a private output buffer covering global elements
    /// `[base, base + data.len())`.
    pub fn add(&mut self, name: impl Into<String>, base: usize, data: ErasedVec) {
        self.vars.insert(
            name.into(),
            OutputVar {
                base,
                data,
                touched: false,
            },
        );
    }

    /// Typed mutable view of `name`. Panics like [`Inputs::view`].
    /// Requesting a mutable view marks the variable as written.
    #[inline(always)]
    pub fn view_mut<T: Pod>(&mut self, name: &str) -> VarViewMut<'_, T> {
        let var = self
            .vars
            .get_mut(name)
            .unwrap_or_else(|| panic!("kernel wrote unmapped variable '{name}'"));
        var.touched = true;
        let base = var.base;
        let tag = var.data.tag();
        let data = var
            .data
            .as_mut_slice::<T>()
            .unwrap_or_else(|| mistyped("wrote", name, T::TAG, tag));
        VarViewMut { base, data }
    }

    /// Consume into [`OutPart`]s for merging, sorted by name for
    /// determinism.
    pub fn into_parts(self) -> Vec<OutPart> {
        let mut parts: Vec<OutPart> = self
            .vars
            .into_iter()
            .map(|(name, v)| OutPart {
                name,
                base: v.base,
                data: v.data,
                touched: v.touched,
            })
            .collect();
        parts.sort_by(|a, b| a.name.cmp(&b.name));
        parts
    }

    /// Names of all registered outputs.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.vars.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// One finished private output buffer, ready for driver-side merging.
#[derive(Debug, Clone)]
pub struct OutPart {
    /// Variable name.
    pub name: String,
    /// Global element index of the buffer's first element.
    pub base: usize,
    /// The private buffer.
    pub data: ErasedVec,
    /// Whether the loop body wrote this variable at all.
    pub touched: bool,
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

    #[test]
    fn ten_thousand_names_each_resolve_to_their_own_buffer() {
        use std::hash::BuildHasher;
        let names: Vec<String> = (0..10_000).map(|k| format!("var_{k:05}")).collect();
        // The unkeyed hash sends some of them to the same bucket: two
        // hashes that agree in their low 16 bits start their probe
        // together in every table of up to 65 536 buckets.
        let hasher = BuildHasherDefault::<NameHasher>::default();
        let mut homes: HashMap<u64, usize> = HashMap::new();
        for name in &names {
            *homes.entry(hasher.hash_one(name) & 0xFFFF).or_default() += 1;
        }
        assert!(homes.values().any(|&sharing| sharing > 1));

        let mut ins = Inputs::new();
        let mut outs = Outputs::new();
        for (k, name) in names.iter().enumerate() {
            ins.add(
                name.clone(),
                k,
                Arc::new(ErasedVec::from_vec(vec![k as u32])),
            );
            outs.add(name.clone(), k, ErasedVec::from_vec(vec![0u64]));
        }
        for (k, name) in names.iter().enumerate() {
            let v = ins.view::<u32>(name);
            assert_eq!((v.base(), v[k]), (k, k as u32), "{name}");
            outs.view_mut::<u64>(name)[k] = 7 * k as u64;
        }
        assert_eq!(ins.names().len(), names.len());
        let parts = outs.into_parts();
        assert_eq!(parts.len(), names.len());
        for (k, part) in parts.iter().enumerate() {
            // Zero-padded, so name order is generation order.
            assert_eq!((part.name.as_str(), part.base), (names[k].as_str(), k));
            assert_eq!(part.data.as_slice::<u64>().unwrap(), &[7 * k as u64]);
        }
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
        let parts = outs.into_parts();
        assert_eq!(parts.len(), 1);
        assert_eq!((parts[0].base, parts[0].touched), (2, false));
        assert_eq!(parts[0].data.as_slice::<i32>().unwrap(), &[0, 0]);
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
        assert!(part.touched);
        assert_eq!(part.data.as_slice::<f32>().unwrap(), &[1.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn into_parts_is_name_sorted() {
        let mut outs = Outputs::new();
        outs.add("Z", 0, ErasedVec::from_vec(vec![0u8]));
        outs.add("A", 0, ErasedVec::from_vec(vec![0u8]));
        let names: Vec<String> = outs.into_parts().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["A", "Z"]);
    }

    #[test]
    fn untouched_outputs_are_flagged() {
        let mut outs = Outputs::new();
        outs.add("written", 0, ErasedVec::from_vec(vec![0.0f32; 2]));
        outs.add("ignored", 0, ErasedVec::from_vec(vec![0.0f32; 2]));
        outs.view_mut::<f32>("written").set(0, 1.0);
        let parts = outs.into_parts();
        let by_name = |n: &str| parts.iter().find(|p| p.name == n).unwrap();
        assert!(!by_name("ignored").touched);
        assert!(by_name("written").touched);
    }
}
