//! A frame's length prefix is only a claim. Reading a frame must size
//! its buffer by the payload bytes that actually arrive, so a peer that
//! sends a large prefix and then stops costs the daemon a small chunk,
//! not the claimed length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use sedspecd::proto::{read_frame, write_frame, ProtoError, MAX_FRAME_LEN};

/// Pass-through allocator counting bytes requested per thread, so the
/// measurement is immune to sibling tests running concurrently in this
/// binary.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bytes_on_this_thread() -> u64 {
    BYTES.with(Cell::get)
}

#[test]
fn a_maximal_prefix_with_one_byte_behind_it_allocates_under_a_mebibyte() {
    let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
    wire.push(b'{');
    let mut stream = Cursor::new(wire);

    let before = bytes_on_this_thread();
    let result = read_frame(&mut stream);
    let allocated = bytes_on_this_thread() - before;

    assert!(matches!(result, Err(ProtoError::Io(_))), "a truncated frame must fail: {result:?}");
    assert!(allocated < 1 << 20, "read_frame allocated {allocated} bytes for a 1-byte payload");
}

#[test]
fn payloads_spanning_several_chunks_read_back_intact() {
    for len in [0usize, 1, 27_000, 64 * 1024, 64 * 1024 + 1, 300_000] {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut stream = Cursor::new(wire);
        assert_eq!(read_frame(&mut stream).unwrap(), payload, "length {len}");
        assert!(matches!(read_frame(&mut stream), Err(ProtoError::Closed)));
    }
}
