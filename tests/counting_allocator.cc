/// \file
/// Replaces the global operator new and delete with versions that count
/// allocations in g_allocations and the bytes they request in
/// g_allocated_bytes (counting_allocator.h). Counting is two relaxed
/// atomic bumps, so the replacement does not perturb what it measures.
/// Every form is replaced, nothrow and aligned included, so each delete
/// frees memory from the malloc that its new took it from.

#include "counting_allocator.h"

#include <cstddef>
#include <cstdlib>
#include <new>

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

namespace {

void
Count(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

void*
Allocate(std::size_t size) noexcept
{
    Count(size);
    return std::malloc(size == 0 ? 1 : size);
}

void*
AllocateAligned(std::size_t size, std::align_val_t align) noexcept
{
    Count(size);
    // aligned_alloc takes a size that is a multiple of the alignment.
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
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

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void
operator delete(void* ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void* ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void* ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
