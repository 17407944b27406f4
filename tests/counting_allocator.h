#ifndef CHEF_TESTS_COUNTING_ALLOCATOR_H_
#define CHEF_TESTS_COUNTING_ALLOCATOR_H_

/// \file
/// Replaces the global operator new and delete with versions that count
/// allocations in g_allocations and the bytes they request in
/// g_allocated_bytes, for tests that assert how often and how much a path
/// allocates. Include this header from exactly one source file of a test
/// binary: each tests/*.cc builds into its own binary, so every other
/// binary keeps the default allocator. Counting is two relaxed atomic bumps,
/// so the replacement does not perturb what it measures. Every form is
/// replaced, nothrow and aligned included, so each delete frees memory
/// from the malloc that its new took it from.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

/// Heap allocations made through operator new since the program started.
inline std::atomic<uint64_t> g_allocations{0};
/// Bytes those allocations requested (malloc's rounding not included).
inline std::atomic<uint64_t> g_allocated_bytes{0};

namespace chef::counting_allocator {

inline void
Count(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

inline void*
Allocate(std::size_t size) noexcept
{
    Count(size);
    return std::malloc(size == 0 ? 1 : size);
}

inline void*
AllocateAligned(std::size_t size, std::align_val_t align) noexcept
{
    Count(size);
    // aligned_alloc takes a size that is a multiple of the alignment.
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

inline void*
OrThrow(void* ptr)
{
    if (ptr == nullptr) {
        throw std::bad_alloc();
    }
    return ptr;
}

}  // namespace chef::counting_allocator

void*
operator new(std::size_t size)
{
    return chef::counting_allocator::OrThrow(
        chef::counting_allocator::Allocate(size));
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return chef::counting_allocator::Allocate(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return chef::counting_allocator::Allocate(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return chef::counting_allocator::OrThrow(
        chef::counting_allocator::AllocateAligned(size, align));
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
    return chef::counting_allocator::AllocateAligned(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return chef::counting_allocator::AllocateAligned(size, align);
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

#endif  // CHEF_TESTS_COUNTING_ALLOCATOR_H_
