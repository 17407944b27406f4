/// \file
/// Tests for the node pool (support/node_pool.h): slot reuse, size
/// classes and alignment, slots that cross threads, frees that arrive
/// after a thread's cache was flushed at exit, and the memory many
/// short-lived threads reserve. Each test that counts reserved bytes
/// across threads uses a size class no other test's threads touch. Under
/// AddressSanitizer the pool forwards to ::operator new, so the tests
/// that read its bookkeeping skip themselves there; the rest still run.

#include "support/node_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "solver/expr.h"

namespace chef::support {
namespace {

#define SKIP_IF_BYPASSED()                                                 \
    do {                                                                   \
        if (kNodePoolBypassed) {                                           \
            GTEST_SKIP() << "the pool forwards to operator new under ASan"; \
        }                                                                  \
    } while (false)

/// Slots per chunk for a block of \p size bytes.
size_t
SlotsPerChunk(size_t size)
{
    return kPoolChunkBytes / (PoolClass(size) * kPoolGranule);
}

TEST(NodePool, SizeClassesFollowTheGranule)
{
    EXPECT_EQ(PoolClass(0), 1u);
    EXPECT_EQ(PoolClass(1), 1u);
    EXPECT_EQ(PoolClass(8), 1u);
    EXPECT_EQ(PoolClass(9), 2u);
    EXPECT_EQ(PoolClass(40), 5u);
    EXPECT_EQ(PoolClass(41), 6u);
    EXPECT_EQ(PoolClass(kPoolMaxSize), kPoolClassCount - 1);
}

TEST(NodePool, FreedSlotIsReusedFirst)
{
    SKIP_IF_BYPASSED();
    void* first = PoolAllocate(40);
    void* second = PoolAllocate(40);
    EXPECT_NE(first, second);
    PoolFree(first, 40);
    EXPECT_EQ(PoolAllocate(40), first);
    PoolFree(second, 40);
    PoolFree(first, 40);
}

TEST(NodePool, SizesShareASlotOnlyWithinTheirClass)
{
    SKIP_IF_BYPASSED();
    void* slot = PoolAllocate(16);
    PoolFree(slot, 16);
    // 9 bytes round up to the 16-byte class, 17 bytes to the 24-byte one.
    void* nine = PoolAllocate(9);
    EXPECT_EQ(nine, slot);
    PoolFree(nine, 9);
    void* seventeen = PoolAllocate(17);
    EXPECT_NE(seventeen, slot);
    PoolFree(seventeen, 17);

    // Above kPoolMaxSize the pool reserves nothing.
    const size_t reserved = NodePoolReservedBytes();
    void* large = PoolAllocate(kPoolMaxSize + 1);
    std::memset(large, 0xab, kPoolMaxSize + 1);
    PoolFree(large, kPoolMaxSize + 1);
    EXPECT_EQ(NodePoolReservedBytes(), reserved);
}

TEST(NodePool, SlotsAreAlignedAndDisjoint)
{
    for (size_t size = 1; size <= kPoolMaxSize; ++size) {
        std::vector<void*> slots;
        for (int i = 0; i < 4; ++i) {
            slots.push_back(PoolAllocate(size));
            std::memset(slots.back(), i, size);
        }
        const size_t slot_bytes = PoolClass(size) * kPoolGranule;
        for (int i = 0; i < 4; ++i) {
            const auto address = reinterpret_cast<uintptr_t>(slots[i]);
            EXPECT_EQ(address % 8, 0u) << size;
            if (slot_bytes % 16 == 0) {
                EXPECT_EQ(address % 16, 0u) << size;
            }
            const auto* bytes = static_cast<const unsigned char*>(slots[i]);
            EXPECT_EQ(bytes[0], i) << size;
            EXPECT_EQ(bytes[size - 1], i) << size;
        }
        for (void* slot : slots) {
            PoolFree(slot, size);
        }
    }

    struct alignas(16) Wide {
        unsigned char bytes[48];
    };
    for (int i = 0; i < 100; ++i) {
        const std::shared_ptr<Wide> wide = MakePooled<Wide>();
        EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.get()) % 16, 0u);
    }
}

TEST(NodePool, MakePooledRunsTheDestructorAndReusesTheSlot)
{
    struct Counted {
        explicit Counted(int* destroyed) : destroyed(destroyed) {}
        ~Counted() { ++*destroyed; }
        int* destroyed;
    };
    int destroyed = 0;
    const Counted* address = nullptr;
    {
        std::shared_ptr<Counted> object = MakePooled<Counted>(&destroyed);
        std::shared_ptr<const Counted> copy = object;
        address = copy.get();
        object.reset();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
    const std::shared_ptr<Counted> again = MakePooled<Counted>(&destroyed);
    if (!kNodePoolBypassed) {
        EXPECT_EQ(again.get(), address);
    }
}

TEST(NodePool, SlotAllocatedOnOneThreadIsFreedOnAnother)
{
    constexpr size_t kSize = 88;
    constexpr size_t kCount = 1000;
    std::vector<void*> slots;
    std::thread maker([&] {
        for (size_t i = 0; i < kCount; ++i) {
            void* slot = PoolAllocate(kSize);
            std::memset(slot, static_cast<int>(i & 0xff), kSize);
            slots.push_back(slot);
        }
    });
    maker.join();
    std::thread freer([&] {
        for (size_t i = 0; i < kCount; ++i) {
            const auto* bytes = static_cast<const unsigned char*>(slots[i]);
            EXPECT_EQ(bytes[kSize - 1], i & 0xff);
            PoolFree(slots[i], kSize);
        }
        // The freeing thread now serves its own allocations from them.
        void* reused = PoolAllocate(kSize);
        if (!kNodePoolBypassed) {
            EXPECT_EQ(reused, slots[kCount - 1]);
        }
        PoolFree(reused, kSize);
    });
    freer.join();

    // Expression nodes, whose counts cross threads with them.
    solver::ExprRef node;
    std::thread([&] {
        node = solver::MakeAdd(solver::MakeVar(1, 32),
                               solver::MakeConst(1000, 32));
    }).join();
    std::thread([&] {
        EXPECT_EQ(node->kind(), solver::ExprKind::kAdd);
        node.reset();
    }).join();
}

/// Frees its slots from a thread-exit destructor. Constructed before the
/// thread's first pool call, it is destroyed after the pool's own exit
/// flush, so its frees reach a thread whose cache is gone.
struct LateFreer {
    size_t size = 0;
    std::vector<void*> slots;

    ~LateFreer()
    {
        for (void* slot : slots) {
            PoolFree(slot, size);
        }
    }
};
thread_local LateFreer t_late_freer;

TEST(NodePool, FreesAfterTheThreadCacheIsFlushedGoToTheDepot)
{
    SKIP_IF_BYPASSED();
    constexpr size_t kSize = 232;
    const size_t count = SlotsPerChunk(kSize);
    std::thread([count] {
        t_late_freer.size = kSize;
        t_late_freer.slots.reserve(count);
        for (size_t i = 0; i < count; ++i) {
            t_late_freer.slots.push_back(PoolAllocate(kSize));
        }
    }).join();

    // The thread took one whole chunk and freed it only after its cache
    // was gone. The next thread finds those slots in the depot and
    // reserves nothing new; its own exit then returns the chunk.
    const size_t reserved = NodePoolReservedBytes();
    size_t reserved_while_held = 0;
    std::thread([count, &reserved_while_held] {
        std::vector<void*> slots;
        for (size_t i = 0; i < count; ++i) {
            slots.push_back(PoolAllocate(kSize));
        }
        reserved_while_held = NodePoolReservedBytes();
        for (void* slot : slots) {
            PoolFree(slot, kSize);
        }
    }).join();
    EXPECT_EQ(reserved_while_held, reserved);
    EXPECT_EQ(NodePoolReservedBytes(), reserved - kPoolChunkBytes);
}

TEST(NodePool, InternedConstantsOutliveTheirThreadsCache)
{
    // A constant's intern table is a thread_local made before the
    // thread's first pool call, so it drops its nodes after the pool has
    // flushed the thread's cache: a node still shared elsewhere lives on,
    // and the others go straight to the depot.
    solver::ExprRef shared;
    std::thread([&] {
        shared = solver::MakeConst(7, 8);
        EXPECT_EQ(solver::MakeConst(7, 8), shared);
        EXPECT_EQ(solver::MakeConst(9, 8)->constant_value(), 9u);
    }).join();
    EXPECT_EQ(shared->constant_value(), 7u);
    EXPECT_EQ(shared.use_count(), 1);
    shared.reset();
}

TEST(NodePool, ShortLivedThreadsDoNotGrowThePool)
{
    constexpr size_t kSize = 72;
    constexpr size_t kNodes = 10'000;
    constexpr int kThreads = 100;
    const size_t before = NodePoolReservedBytes();
    size_t most_held = 0;
    for (int i = 0; i < kThreads; ++i) {
        std::thread([&most_held] {
            std::vector<void*> slots;
            slots.reserve(kNodes);
            for (size_t i = 0; i < kNodes; ++i) {
                slots.push_back(PoolAllocate(kSize));
                std::memset(slots.back(), 0x5a, kSize);
            }
            most_held = std::max(most_held, NodePoolReservedBytes());
            for (void* slot : slots) {
                PoolFree(slot, kSize);
            }
        }).join();
    }
    if (!kNodePoolBypassed) {
        EXPECT_GE(most_held - before, kNodes * kSize);
    }
    // Each thread's slots reach the depot at its exit, and the chunks
    // they fill go back: the pool holds at most what one thread needs,
    // not a hundred times that, and nothing once the threads are gone.
    EXPECT_LE(most_held - before, kNodes * kSize + 2 * kPoolChunkBytes);
    EXPECT_EQ(NodePoolReservedBytes(), before);
}

TEST(NodePool, ConcurrentMakersAndFreersKeepSlotsIntact)
{
    constexpr size_t kSize = 104;
    constexpr size_t kPerMaker = 20'000;
    std::mutex mutex;
    std::deque<void*> queue;  // Guarded by mutex.
    std::vector<std::thread> threads;
    for (int maker = 0; maker < 2; ++maker) {
        threads.emplace_back([&, maker] {
            for (size_t i = 0; i < kPerMaker; ++i) {
                void* slot = PoolAllocate(kSize);
                std::memset(slot, maker + 1, kSize);
                const std::lock_guard<std::mutex> lock(mutex);
                queue.push_back(slot);
            }
        });
    }
    for (int freer = 0; freer < 2; ++freer) {
        threads.emplace_back([&] {
            size_t freed = 0;
            while (freed < kPerMaker) {
                void* slot = nullptr;
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    if (!queue.empty()) {
                        slot = queue.front();
                        queue.pop_front();
                    }
                }
                if (slot == nullptr) {
                    std::this_thread::yield();
                    continue;
                }
                const auto* bytes = static_cast<const unsigned char*>(slot);
                const unsigned char mark = bytes[0];
                EXPECT_TRUE(mark == 1 || mark == 2);
                EXPECT_EQ(bytes[kSize - 1], mark);
                // Another thread may be handed this slot next.
                std::memset(slot, 0, kSize);
                PoolFree(slot, kSize);
                ++freed;
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace chef::support
