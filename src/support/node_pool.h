#ifndef CHEF_SUPPORT_NODE_POOL_H_
#define CHEF_SUPPORT_NODE_POOL_H_

/// \file
/// A small-object pool for the nodes a session makes and drops on every
/// guest step: expression nodes, minipy objects, path-condition links,
/// Lua slot frames and Lua string blocks.
///
/// Blocks of up to kPoolMaxSize bytes are rounded up to a size class on
/// an 8-byte granule. Each class carves its slots from 16 KiB chunks
/// obtained with ::operator new, and a slot of a class whose size is a
/// multiple of 16 is 16-byte aligned. Every thread keeps one free list
/// per class, so taking or returning a slot is a pointer pop or push
/// with no lock and no atomic operation. A free list that grows past two
/// batches hands one batch to a mutex-guarded global depot, and an empty
/// free list refills from the depot before a new chunk is carved; so a
/// thread that frees what another made does not hoard slots. When a
/// thread exits, its free lists and the uncarved rest of its current
/// chunks go to the depot, where the next thread finds them; a chunk
/// whose slots are then all in the depot goes back to ::operator
/// delete, so the memory of a finished batch of sessions on worker
/// threads can serve any size again.
///
/// Nodes cross threads: an interned constant can be released by the
/// intern table's own thread-exit destructor, after the pool has flushed
/// that thread's cache. A slot freed on a thread whose cache is gone
/// goes straight to the depot.
///
/// Under AddressSanitizer every call forwards to ::operator new and
/// ::operator delete, so ASan and LeakSanitizer check each object on its
/// own: inside a pool, a use after free or a leak of one node would hide
/// in a live chunk.
///
/// Types whose address feeds a hash that orders guest behaviour stay on
/// the default allocator (see LuaInterp::HashKey).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CHEF_NODE_POOL_BYPASSED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHEF_NODE_POOL_BYPASSED 1
#endif
#endif

namespace chef::support {

/// Size classes are multiples of this many bytes.
inline constexpr size_t kPoolGranule = 8;
/// Larger blocks go to ::operator new directly.
inline constexpr size_t kPoolMaxSize = 512;
/// Class c holds slots of c * kPoolGranule bytes (class 0 is unused).
inline constexpr size_t kPoolClassCount = kPoolMaxSize / kPoolGranule + 1;
/// Bytes of one chunk; a chunk serves one size class.
inline constexpr size_t kPoolChunkBytes = size_t{16} << 10;

#ifdef CHEF_NODE_POOL_BYPASSED
inline constexpr bool kNodePoolBypassed = true;
#else
inline constexpr bool kNodePoolBypassed = false;
#endif

/// A free slot, linked into a free list through its first word.
struct PoolSlot {
    PoolSlot* next;
};

/// One thread's free lists. Zero-initialized and trivially destructible,
/// so reaching it costs no guard; the thread-exit flush is registered by
/// the slow path (node_pool.cc).
struct PoolThreadCache {
    enum State : uint8_t {
        kUnused,   ///< The thread has not touched the pool yet.
        kLive,     ///< The lists are in use; the exit flush is registered.
        kFlushed,  ///< The thread is exiting and its lists are gone.
    };
    PoolSlot* free[kPoolClassCount];
    uint32_t count[kPoolClassCount];
    State state;
};

/// Slots move between a thread and the depot in batches of about this
/// many bytes, and a thread's free list for a class holds at most two.
inline constexpr size_t kPoolBatchBytes = size_t{8} << 10;

/// The slots of one batch of \p size_class.
constexpr uint32_t
PoolBatchSlots(size_t size_class) noexcept
{
    return static_cast<uint32_t>(kPoolBatchBytes /
                                 (size_class * kPoolGranule));
}

/// The calling thread's cache.
inline PoolThreadCache&
LocalPoolCache() noexcept
{
    static thread_local PoolThreadCache cache;
    return cache;
}

/// The size class of a block of \p size bytes (1..kPoolMaxSize).
constexpr size_t
PoolClass(size_t size) noexcept
{
    return size == 0 ? 1 : (size + kPoolGranule - 1) / kPoolGranule;
}

/// Slow paths, taken when the thread's list for the class is empty
/// (allocation), full or not live (free).
void* PoolAllocateSlow(size_t size_class);
void PoolFreeSlow(void* ptr, size_t size_class) noexcept;

/// Returns a block of \p size bytes.
inline void*
PoolAllocate(size_t size)
{
#ifdef CHEF_NODE_POOL_BYPASSED
    return ::operator new(size);
#else
    if (size > kPoolMaxSize) {
        return ::operator new(size);
    }
    const size_t size_class = PoolClass(size);
    PoolThreadCache& cache = LocalPoolCache();
    PoolSlot* slot = cache.free[size_class];
    if (slot == nullptr) {
        return PoolAllocateSlow(size_class);
    }
    cache.free[size_class] = slot->next;
    --cache.count[size_class];
    return slot;
#endif
}

/// Returns \p ptr, a block PoolAllocate(\p size) returned, on any thread.
inline void
PoolFree(void* ptr, size_t size) noexcept
{
#ifdef CHEF_NODE_POOL_BYPASSED
    ::operator delete(ptr, size);
#else
    if (size > kPoolMaxSize) {
        ::operator delete(ptr, size);
        return;
    }
    const size_t size_class = PoolClass(size);
    PoolThreadCache& cache = LocalPoolCache();
    if (cache.state != PoolThreadCache::kLive ||
        cache.count[size_class] >= 2 * PoolBatchSlots(size_class)) {
        PoolFreeSlow(ptr, size_class);
        return;
    }
    cache.free[size_class] = ::new (ptr) PoolSlot{cache.free[size_class]};
    ++cache.count[size_class];
#endif
}

/// Bytes the pool holds from ::operator new: its chunks, and the single
/// slots an exiting thread took; 0 when bypassed.
size_t NodePoolReservedBytes() noexcept;

/// A standard allocator over the pool, for std::allocate_shared: the
/// object and its control block take one slot.
template <typename T>
struct PoolAllocator {
    static_assert(alignof(T) <= 16, "pool slots are at most 16-aligned");
    using value_type = T;
    using is_always_equal = std::true_type;

    PoolAllocator() noexcept = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U>&) noexcept
    {
    }

    T*
    allocate(size_t n)
    {
        return static_cast<T*>(PoolAllocate(n * sizeof(T)));
    }
    void
    deallocate(T* ptr, size_t n) noexcept
    {
        PoolFree(ptr, n * sizeof(T));
    }

    friend bool
    operator==(const PoolAllocator&, const PoolAllocator&) noexcept
    {
        return true;
    }
    friend bool
    operator!=(const PoolAllocator&, const PoolAllocator&) noexcept
    {
        return false;
    }
};

/// std::make_shared with the object and its count in one pool slot.
template <typename T, typename... Args>
std::shared_ptr<T>
MakePooled(Args&&... args)
{
    return std::allocate_shared<T>(PoolAllocator<T>(),
                                   std::forward<Args>(args)...);
}

}  // namespace chef::support

#endif  // CHEF_SUPPORT_NODE_POOL_H_
