//! What sealing and opening one 1 MiB planes frame allocates, under a
//! counting allocator: the chain workload's `y` (integers below 251 as
//! `f32`, two `y * 0.5 + k` stages in) sealed with `Planes4`.
//!
//! The codec used to shuffle the whole input into a second buffer before
//! coding its planes, and to decode every plane into one shuffled buffer
//! before unshuffling it into a third. Now the encoder gathers each plane
//! into a plane-sized scratch and the decoder interleaves the planes
//! straight into the output, so the only allocation as long as the input
//! is the decoded buffer itself.

#[allow(dead_code)]
#[path = "../src/testdata.rs"]
mod testdata;

use gzlite::{compress, decompress, frame_codec, Codec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Bytes of the buffer: 1 MiB of `f32`.
const LEN: usize = 1 << 20;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations of at least `LEN` bytes granted while counting.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    /// Bytes granted while counting.
    static GRANTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn record(granted: *mut u8, size: usize) {
    if granted.is_null() || !COUNTING.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let _ = GRANTED.try_with(|g| g.set(g.get() + size));
    if size >= LEN {
        let _ = LARGE.try_with(|l| l.set(l.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; recording the size touches only `const`
// thread-local `Cell`s, which neither allocate nor have destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        record(ptr, new_size);
        ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` with this thread's allocations counted: its result, the
/// allocations of at least [`LEN`] bytes and the bytes granted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGE.with(|l| l.set(0));
    GRANTED.with(|g| g.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, LARGE.with(Cell::get), GRANTED.with(Cell::get))
}

#[test]
fn a_planes_frame_allocates_no_input_length_buffer_but_the_output() {
    let data = testdata::integer_f32(LEN, 2017, 2);
    let (frame, sealed_large, sealed_bytes) = counted(|| compress(&data, Codec::Planes4));
    assert_eq!(frame_codec(&frame).unwrap(), Codec::Planes4);
    let (back, opened_large, opened_bytes) = counted(|| decompress(&frame).unwrap());
    assert!(back == data, "the frame decodes to its input");
    println!(
        "{LEN} bytes sealed into {} with {sealed_bytes} bytes allocated, opened with {opened_bytes}",
        frame.len()
    );
    assert_eq!(sealed_large, 0, "sealing allocated an input-length buffer");
    assert_eq!(opened_large, 1, "opening allocated more than its output");
}
