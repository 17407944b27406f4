#ifndef CHEF_TESTS_COUNTING_ALLOCATOR_H_
#define CHEF_TESTS_COUNTING_ALLOCATOR_H_

/// \file
/// The counters of the counting global operator new and delete, for tests
/// that assert how often and how much a path allocates. The replacement
/// itself is in counting_allocator.cc, linked only into the test binaries
/// that use it (see CMakeLists.txt); every other binary keeps the default
/// allocator. Defining the replaced operators in their own translation
/// unit keeps the compiler from inlining them into a test's code, where it
/// would pair a new with the free inside a delete and warn about the
/// mismatch.

#include <atomic>
#include <cstdint>

/// Heap allocations made through operator new since the program started.
extern std::atomic<uint64_t> g_allocations;
/// Bytes those allocations requested (malloc's rounding not included).
extern std::atomic<uint64_t> g_allocated_bytes;
/// Bytes of the blocks operator new has handed out and operator delete
/// has not yet taken back, each counted at malloc's usable size (the
/// request rounded up to malloc's granularity), so the count follows the
/// heap that the process really holds.
extern std::atomic<uint64_t> g_live_bytes;
/// The highest g_live_bytes has been since the program started or since
/// the last ResetPeakLiveBytes().
extern std::atomic<uint64_t> g_peak_live_bytes;

/// Lowers g_peak_live_bytes to the current g_live_bytes, to measure the
/// peak of the code that follows.
void ResetPeakLiveBytes();

#endif  // CHEF_TESTS_COUNTING_ALLOCATOR_H_
