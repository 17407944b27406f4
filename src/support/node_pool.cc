#include "support/node_pool.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

namespace chef::support {

namespace {

/// The free slots no thread holds, one list per size class, and the
/// chunks each class has carved.
struct Depot {
    std::mutex mutex;
    PoolSlot* free[kPoolClassCount] = {};  ///< Guarded by mutex.
    size_t count[kPoolClassCount] = {};    ///< Guarded by mutex.
    /// In address order; guarded by mutex.
    std::vector<char*> chunks[kPoolClassCount];
};

Depot&
GlobalDepot()
{
    // Never destroyed: slots come back from thread-exit and static
    // destructors that may run after any destructor of ours.
    static Depot* const depot = new Depot;
    return *depot;
}

std::atomic<size_t> g_reserved_bytes{0};

/// The part of a class's current chunk not yet carved into slots.
struct Carve {
    char* next;
    char* end;
};
thread_local Carve t_carve[kPoolClassCount];

/// The \p n-th slot (1-based) of a list at least \p n long.
PoolSlot*
NthSlot(PoolSlot* head, size_t n)
{
    for (size_t i = 1; i < n; ++i) {
        head = head->next;
    }
    return head;
}

/// Pushes the list head..tail of \p n slots onto the depot's list for
/// \p size_class; the caller holds the depot's mutex.
void
PushLocked(Depot& depot, size_t size_class, PoolSlot* head, PoolSlot* tail,
           size_t n)
{
    tail->next = depot.free[size_class];
    depot.free[size_class] = head;
    depot.count[size_class] += n;
}

/// Returns every chunk of \p size_class whose slots are all in the
/// depot to ::operator delete; the caller holds the depot's mutex. A
/// slot outside every chunk (PoolAllocateSlow's exit fallback) stays.
void
TrimLocked(Depot& depot, size_t size_class)
{
    const size_t per_chunk = kPoolChunkBytes / (size_class * kPoolGranule);
    std::vector<char*>& chunks = depot.chunks[size_class];
    if (depot.count[size_class] < per_chunk) {
        return;
    }
    // The index of the chunk holding \p slot, or chunks.size().
    const auto chunk_of = [&chunks](PoolSlot* slot) {
        char* const at = reinterpret_cast<char*>(slot);
        const auto after = std::upper_bound(chunks.begin(), chunks.end(),
                                            at, std::less<char*>());
        if (after == chunks.begin() ||
            std::less<char*>()(*(after - 1) + kPoolChunkBytes - 1, at)) {
            return chunks.size();
        }
        return static_cast<size_t>(after - chunks.begin()) - 1;
    };
    std::vector<size_t> free_slots(chunks.size() + 1);
    for (PoolSlot* slot = depot.free[size_class]; slot != nullptr;
         slot = slot->next) {
        ++free_slots[chunk_of(slot)];
    }
    free_slots.back() = 0;
    if (std::find(free_slots.begin(), free_slots.end(), per_chunk) ==
        free_slots.end()) {
        return;
    }
    for (PoolSlot** link = &depot.free[size_class]; *link != nullptr;) {
        if (free_slots[chunk_of(*link)] == per_chunk) {
            *link = (*link)->next;
            --depot.count[size_class];
        } else {
            link = &(*link)->next;
        }
    }
    size_t kept = 0;
    for (size_t i = 0; i < chunks.size(); ++i) {
        if (free_slots[i] == per_chunk) {
            ::operator delete(chunks[i], kPoolChunkBytes);
            g_reserved_bytes.fetch_sub(kPoolChunkBytes,
                                       std::memory_order_relaxed);
        } else {
            chunks[kept++] = chunks[i];
        }
    }
    chunks.resize(kept);
}

/// Hands the calling thread's free lists and the uncarved rest of its
/// chunks to the depot, for good: later frees on this thread go to the
/// depot directly. Chunks that the thread's exit leaves wholly free go
/// back to ::operator delete, so memory a finished batch of sessions
/// held serves whatever runs next, whatever its sizes.
void
FlushThread() noexcept
{
    PoolThreadCache& cache = LocalPoolCache();
    Depot& depot = GlobalDepot();
    std::lock_guard<std::mutex> lock(depot.mutex);
    for (size_t size_class = 1; size_class < kPoolClassCount; ++size_class) {
        if (PoolSlot* head = cache.free[size_class]) {
            PushLocked(depot, size_class, head,
                       NthSlot(head, cache.count[size_class]),
                       cache.count[size_class]);
            cache.free[size_class] = nullptr;
            cache.count[size_class] = 0;
        }
        Carve& carve = t_carve[size_class];
        const size_t slot_bytes = size_class * kPoolGranule;
        for (; carve.next != carve.end; carve.next += slot_bytes) {
            PoolSlot* slot = ::new (carve.next) PoolSlot{nullptr};
            PushLocked(depot, size_class, slot, slot, 1);
        }
        carve = Carve{nullptr, nullptr};
        TrimLocked(depot, size_class);
    }
    cache.state = PoolThreadCache::kFlushed;
}

/// Registers the calling thread's exit flush and marks its cache live.
void
MakeLive(PoolThreadCache& cache)
{
    struct ExitFlush {
        ~ExitFlush() { FlushThread(); }
    };
    static thread_local ExitFlush flush;
    (void)flush;
    cache.state = PoolThreadCache::kLive;
}

/// Moves up to one batch of depot slots of \p size_class to the
/// thread's empty free list; false when the depot has none. The caller
/// holds the depot's mutex.
bool
RefillLocked(Depot& depot, PoolThreadCache& cache, size_t size_class)
{
    PoolSlot* head = depot.free[size_class];
    if (head == nullptr) {
        return false;
    }
    const size_t n = std::min<size_t>(depot.count[size_class],
                                      PoolBatchSlots(size_class));
    PoolSlot* tail = NthSlot(head, n);
    depot.free[size_class] = tail->next;
    depot.count[size_class] -= n;
    tail->next = nullptr;
    cache.free[size_class] = head;
    cache.count[size_class] = static_cast<uint32_t>(n);
    return true;
}

}  // namespace

void*
PoolAllocateSlow(size_t size_class)
{
    PoolThreadCache& cache = LocalPoolCache();
    const size_t slot_bytes = size_class * kPoolGranule;
    if (cache.state == PoolThreadCache::kFlushed) {
        // The thread is exiting: serve it from the depot directly.
        Depot& depot = GlobalDepot();
        {
            std::lock_guard<std::mutex> lock(depot.mutex);
            if (PoolSlot* slot = depot.free[size_class]) {
                depot.free[size_class] = slot->next;
                --depot.count[size_class];
                return slot;
            }
        }
        g_reserved_bytes.fetch_add(slot_bytes, std::memory_order_relaxed);
        return ::operator new(slot_bytes);
    }
    if (cache.state == PoolThreadCache::kUnused) {
        MakeLive(cache);
    }
    Carve& carve = t_carve[size_class];
    if (carve.next == carve.end) {
        Depot& depot = GlobalDepot();
        std::lock_guard<std::mutex> lock(depot.mutex);
        if (RefillLocked(depot, cache, size_class)) {
            PoolSlot* slot = cache.free[size_class];
            cache.free[size_class] = slot->next;
            --cache.count[size_class];
            return slot;
        }
        char* chunk = static_cast<char*>(::operator new(kPoolChunkBytes));
        g_reserved_bytes.fetch_add(kPoolChunkBytes,
                                   std::memory_order_relaxed);
        std::vector<char*>& chunks = depot.chunks[size_class];
        chunks.insert(std::upper_bound(chunks.begin(), chunks.end(), chunk,
                                       std::less<char*>()),
                      chunk);
        carve.next = chunk;
        carve.end = chunk + kPoolChunkBytes / slot_bytes * slot_bytes;
    }
    void* slot = carve.next;
    carve.next += slot_bytes;
    return slot;
}

void
PoolFreeSlow(void* ptr, size_t size_class) noexcept
{
    PoolThreadCache& cache = LocalPoolCache();
    switch (cache.state) {
      case PoolThreadCache::kFlushed: {
        PoolSlot* slot = ::new (ptr) PoolSlot{nullptr};
        Depot& depot = GlobalDepot();
        std::lock_guard<std::mutex> lock(depot.mutex);
        PushLocked(depot, size_class, slot, slot, 1);
        return;
      }
      case PoolThreadCache::kUnused:
        MakeLive(cache);
        break;
      case PoolThreadCache::kLive: {
        // The list is full: its front batch goes to the depot.
        const uint32_t batch = PoolBatchSlots(size_class);
        PoolSlot* head = cache.free[size_class];
        PoolSlot* tail = NthSlot(head, batch);
        cache.free[size_class] = tail->next;
        cache.count[size_class] -= batch;
        Depot& depot = GlobalDepot();
        std::lock_guard<std::mutex> lock(depot.mutex);
        PushLocked(depot, size_class, head, tail, batch);
        break;
      }
    }
    cache.free[size_class] = ::new (ptr) PoolSlot{cache.free[size_class]};
    ++cache.count[size_class];
}

size_t
NodePoolReservedBytes() noexcept
{
    return g_reserved_bytes.load(std::memory_order_relaxed);
}

}  // namespace chef::support
