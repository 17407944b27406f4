/// \file
/// Replaces the global operator new and delete with versions that count
/// allocations in g_allocations and the bytes they request in
/// g_allocated_bytes, and track the live heap in g_live_bytes and its
/// high-water mark in g_peak_live_bytes (counting_allocator.h). Counting
/// is a few relaxed atomic operations, so the replacement does not
/// perturb what it measures. Every form is replaced, nothrow and aligned
/// included, so each delete frees memory from the malloc that its new
/// took it from.

#include "counting_allocator.h"

#include <malloc.h>

#include <cstddef>
#include <cstdlib>
#include <new>

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};
std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_live_bytes{0};

void
ResetPeakLiveBytes()
{
    g_peak_live_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
}

namespace {

/// Counts a new allocation of \p size bytes that malloc served with
/// \p ptr (null when it failed).
void*
Count(std::size_t size, void* ptr) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    if (ptr != nullptr) {
        const uint64_t block = malloc_usable_size(ptr);
        const uint64_t live =
            g_live_bytes.fetch_add(block, std::memory_order_relaxed) + block;
        uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
        while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                                  peak, live, std::memory_order_relaxed)) {
        }
    }
    return ptr;
}

void*
Allocate(std::size_t size) noexcept
{
    return Count(size, std::malloc(size == 0 ? 1 : size));
}

void*
AllocateAligned(std::size_t size, std::align_val_t align) noexcept
{
    // aligned_alloc takes a size that is a multiple of the alignment.
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    return Count(size, std::aligned_alloc(alignment, rounded == 0
                                                         ? alignment
                                                         : rounded));
}

void
Free(void* ptr) noexcept
{
    if (ptr != nullptr) {
        g_live_bytes.fetch_sub(malloc_usable_size(ptr),
                               std::memory_order_relaxed);
    }
    std::free(ptr);
}

void*
OrThrow(void* ptr)
{
    if (ptr == nullptr) {
        throw std::bad_alloc();
    }
    return ptr;
}

}  // namespace

void*
operator new(std::size_t size)
{
    return OrThrow(Allocate(size));
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return Allocate(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return Allocate(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return OrThrow(AllocateAligned(size, align));
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void*
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    return AllocateAligned(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return AllocateAligned(size, align);
}

void operator delete(void* ptr) noexcept { Free(ptr); }
void operator delete[](void* ptr) noexcept { Free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { Free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { Free(ptr); }
void
operator delete(void* ptr, std::align_val_t) noexcept
{
    Free(ptr);
}
void
operator delete[](void* ptr, std::align_val_t) noexcept
{
    Free(ptr);
}
void
operator delete(void* ptr, std::size_t, std::align_val_t) noexcept
{
    Free(ptr);
}
void
operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept
{
    Free(ptr);
}
