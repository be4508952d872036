//! A tenant's guest memory and disk are address spaces, not
//! reservations: building a context allocates page tables only, and a
//! guest write allocates the one page it lands on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sedspec_vmm::{VmContext, SECTOR_SIZE};

/// Pass-through allocator counting allocations and bytes requested per
/// thread, so the measurement is immune to sibling tests running
/// concurrently in this binary.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn charge(bytes: usize) {
    ALLOCS.with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
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

/// `(allocations, bytes)` requested on this thread while `f` runs.
fn measure<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (calls, bytes) = ALLOCS.with(Cell::get);
    let out = f();
    let (calls_after, bytes_after) = ALLOCS.with(Cell::get);
    (out, (calls_after - calls, bytes_after - bytes))
}

/// Budget for a fresh default-sized context: one 8-byte table entry per
/// 4 KiB page of memory (256) and disk (512), plus 16 IRQ lines. The
/// flat buffers this replaces cost 3 MiB.
const CONTEXT_BUDGET: u64 = 16 * 1024;

const PAGE: u64 = 4096;

#[test]
fn a_default_tenant_context_allocates_page_tables_only() {
    // `TenantConfig::new`'s defaults: 1 MiB of memory, 2 MiB of disk.
    let (mut ctx, (_, bytes)) = measure(|| VmContext::new(0x100000, 4096));
    assert!(bytes <= CONTEXT_BUDGET, "VmContext::new allocated {bytes} bytes");

    let (r, cost) = measure(|| ctx.mem.write_u8(0x8_0123, 0x5a));
    r.unwrap();
    assert_eq!(cost, (1, PAGE), "a one-byte guest write allocates exactly one page");

    let (r, cost) = measure(|| ctx.mem.write_u32(0x8_0200, 7));
    r.unwrap();
    assert_eq!(cost, (0, 0), "a write to a resident page allocates nothing");

    let (r, cost) = measure(|| ctx.mem.fill(0, 0x100000, 0));
    r.unwrap();
    assert_eq!(cost, (0, 0), "zero-filling the whole space allocates nothing");

    let (r, cost) = measure(|| ctx.disk.write_sector(100, &[1, 2, 3]));
    r.unwrap();
    assert_eq!(cost, (1, PAGE), "a short sector write allocates exactly one page");

    // A sector read allocates its owned buffer, never a page.
    let (r, cost) = measure(|| ctx.disk.read_sector(4000));
    assert_eq!(r.unwrap(), vec![0; SECTOR_SIZE]);
    assert_eq!(cost, (1, SECTOR_SIZE as u64));
}
