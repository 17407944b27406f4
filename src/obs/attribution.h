#ifndef CHEF_OBS_ATTRIBUTION_H_
#define CHEF_OBS_ATTRIBUTION_H_

/// \file
/// The exploration attribution profiler: per-location cost/yield
/// accounting over the high-level PC space, plus frontier introspection.
///
/// The telemetry layers below (metrics, traces, time series) say how
/// much the system spends; this layer says *where in the guest program*
/// the spend goes. Every unit of work — a solver wall-nanosecond, an
/// interpreted step, a fork, an assume-failure, a new HL fingerprint —
/// is charged to the (workload, hl_pc) location that incurred it, so
/// "why is this workload plateauing" becomes a table lookup instead of
/// guesswork.
///
/// Design constraints mirror obs/metrics.h:
///
///  1. The charge path is wait-free and allocation-free: one stripe per
///     thread group (obs::ThisThreadStripe), each stripe an
///     open-addressed fixed-capacity table of cache-friendly cells whose
///     key slot is claimed with a single CAS and whose counters are
///     relaxed atomic adds. A full stripe spills into sibling stripes
///     (Snapshot folds stripes by key, so spilled charges merge back
///     exactly); only when every stripe is full do charges fold into a
///     per-stripe overflow aggregate cell, so totals stay exact even
///     then (dropped_locations counts the redirected charges).
///  2. Reads are point-in-time snapshots: Snapshot() sums stripes into a
///     plain value type (AttributionSnapshot) that merges
///     order-independently and serializes through support/json — the
///     same lifecycle as MetricsSnapshot, so the shard wire and the
///     merged report carry it with the established idioms.
///  3. Charging is ambient-location based where the caller cannot know
///     the location: Solver::Solve charges the thread-local location
///     installed by the innermost ScopedLocation (the engine brackets
///     every Solve call site with the hl_pc of the state being solved).
///
/// Parent links: the first charge that creates a location's cell may
/// record a *discovery predecessor* (the hl_pc observed immediately
/// before it in the interpreter trace). Walking parent links yields the
/// folded-stack lines (`workload;0xroot;...;0xleaf value`) that standard
/// flamegraph tools consume (RenderAttributionFoldedStacks).
///
/// FrontierInspector + FrontierSnapshot cover the other half of the
/// question — not where past work went, but what the strategy is *about
/// to* do: pending-state depth histogram, tree branching factor,
/// in-flight lease ages, and per-strategy pick counts from a bounded
/// strategy-decision audit ring.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace chef::support {
class JsonWriter;
struct JsonValue;
}  // namespace chef::support

namespace chef::obs {

/// Cells per stripe. Guest programs expose hundreds of high-level
/// locations; a thread whose stripe fills spills into sibling stripes
/// (kMetricStripes x this many cells in total per profiler), and only a
/// completely full table folds charges into the overflow pseudo
/// location below — nothing is lost either way.
constexpr size_t kAttributionCellsPerStripe = 256;

/// Reserved hl_pc for the per-stripe overflow aggregate. Real high-level
/// PCs are interpreter line/opcode addresses and never reach this value.
constexpr uint64_t kAttributionOverflowHlPc = UINT64_MAX - 1;

/// "No discovery predecessor recorded" sentinel for AttributionRow::parent.
constexpr uint64_t kAttributionNoParent = UINT64_MAX;

/// One location's accumulated costs (what exploration spent there) and
/// yields (what it got back).
struct AttributionRow {
    uint64_t solver_nanos = 0;      ///< Solver wall time charged here.
    uint64_t solver_queries = 0;    ///< Solve() calls charged here.
    uint64_t steps = 0;             ///< Interpreter steps (log_pc events).
    uint64_t forks = 0;             ///< Alternate states registered here.
    uint64_t assume_failures = 0;   ///< Assumption-violation retries.
    uint64_t new_fingerprints = 0;  ///< New HL path fingerprints (yield).
    uint64_t runs = 0;              ///< Concolic runs originating here.
    /// Discovery predecessor (hl_pc observed immediately before this
    /// location's first charge), or kAttributionNoParent.
    uint64_t parent = kAttributionNoParent;

    uint64_t TotalCharges() const
    {
        return solver_queries + steps + forks + assume_failures +
               new_fingerprints + runs;
    }
};

/// Point-in-time copy of one or more profilers: per-workload tables
/// keyed by hl_pc. A plain value type with the MetricsSnapshot
/// lifecycle — merged across jobs, shards, and requeue rounds;
/// serialized on the gossip wire and into the report's
/// telemetry.attribution section.
struct AttributionSnapshot {
    /// workload -> hl_pc -> row. std::map keeps serialization
    /// deterministic (sorted) regardless of accumulation order.
    std::map<std::string, std::map<uint64_t, AttributionRow>> workloads;
    /// Charges redirected to the overflow pseudo location because a
    /// stripe's cell table was full.
    uint64_t dropped_locations = 0;

    bool empty() const;

    /// Name-keyed, order- and grouping-independent merge: counters sum;
    /// parent links resolve to the smallest recorded parent (a pure
    /// function of the operand set, so shard arrival order cannot
    /// change the result).
    void MergeFrom(const AttributionSnapshot& other);

    /// Sum of solver_nanos over every location, in seconds.
    double SolverSecondsTotal() const;
    /// Sum of new_fingerprints over every location.
    uint64_t NewFingerprintsTotal() const;
};

/// True when the two snapshots agree on every deterministic column:
/// same workloads, same locations, and equal solver_queries / steps /
/// forks / assume_failures / new_fingerprints / runs per location.
/// solver_nanos (wall time) and dropped_locations are excluded — wall
/// time varies run to run even when exploration is bit-identical.
bool AttributionCountsEqual(const AttributionSnapshot& a,
                            const AttributionSnapshot& b);

/// The per-job profiler. Bound to one workload; every charge lands in
/// this thread's stripe with one CAS-claimed cell lookup plus relaxed
/// atomic adds (no locks, no allocation).
class AttributionProfiler
{
  public:
    enum CounterKind : uint32_t {
        kSolverNanos = 0,
        kSolverQueries,
        kSteps,
        kForks,
        kAssumeFailures,
        kNewFingerprints,
        kRuns,
        kCounterKinds,
    };

    explicit AttributionProfiler(std::string workload);

    const std::string& workload() const { return workload_; }

    /// Charges \p delta of \p kind to \p hl_pc. Wait-free.
    void Charge(uint64_t hl_pc, CounterKind kind, uint64_t delta = 1);

    /// Charge that additionally records \p parent as the discovery
    /// predecessor if this location has none yet.
    void ChargeWithParent(uint64_t hl_pc, uint64_t parent,
                          CounterKind kind, uint64_t delta = 1);

    /// Charges one solver query of \p nanos wall time to the current
    /// thread's ambient location (see ScopedLocation). Called by
    /// Solver::Solve with the same duration it feeds the latency
    /// histogram, so attribution totals and solver_seconds_total agree.
    void ChargeSolver(uint64_t nanos);

    AttributionSnapshot Snapshot() const;

  private:
    struct Cell {
        std::atomic<uint64_t> key{kEmptyKey};
        std::atomic<uint64_t> parent{kAttributionNoParent};
        std::array<std::atomic<uint64_t>, kCounterKinds> counts{};
    };
    struct alignas(64) Stripe {
        std::array<Cell, kAttributionCellsPerStripe> cells{};
        Cell overflow{};
        std::atomic<uint64_t> dropped{0};
    };

    static constexpr uint64_t kEmptyKey = UINT64_MAX;

    /// Finds or CAS-claims the cell for \p key in \p stripe; null when
    /// the stripe is full.
    Cell* FindCell(Stripe& stripe, uint64_t key);

    /// Finds or claims \p key's cell, probing this thread's stripe
    /// first and spilling into sibling stripes when it is full. Fills
    /// \p home with the thread's own stripe (for overflow accounting);
    /// returns null only when every stripe is full.
    Cell* LocateCell(uint64_t key, Stripe** home);

    std::string workload_;
    std::unique_ptr<Stripe[]> stripes_;
};

/// Installs \p hl_pc as this thread's ambient attribution location for
/// the scope's lifetime (restores the previous location on exit). The
/// engine brackets every Solve call site with the location being
/// solved; code that runs outside any scope charges the root location
/// (hl_pc 0).
class ScopedLocation
{
  public:
    explicit ScopedLocation(uint64_t hl_pc);
    ~ScopedLocation();

    ScopedLocation(const ScopedLocation&) = delete;
    ScopedLocation& operator=(const ScopedLocation&) = delete;

  private:
    uint64_t saved_;
};

/// This thread's current ambient location (0 outside any ScopedLocation).
uint64_t CurrentAmbientLocation();

// ---------------------------------------------------------------------------
// Frontier introspection

/// Depth buckets for the pending-state histogram: bucket b counts
/// pending states with floor(log2(depth + 1)) == b (so bucket 0 is
/// depth 0, bucket 1 is depth 1-2, ...), and the last bucket absorbs
/// the tail.
constexpr size_t kFrontierDepthBuckets = 16;

/// Point-in-time view of the exploration frontier: what is pending,
/// what is leased out, and how the strategy has been picking.
struct FrontierSnapshot {
    uint64_t pending = 0;    ///< States awaiting selection.
    uint64_t in_flight = 0;  ///< States leased to workers.
    uint64_t nodes = 0;      ///< Branch nodes in the low-level tree.
    std::array<uint64_t, kFrontierDepthBuckets> depth_histogram{};
    /// Mean explored children per non-leaf branch node.
    double mean_branching = 0.0;
    /// Ages of outstanding leases at snapshot time, seconds.
    double lease_age_max_seconds = 0.0;
    double lease_age_mean_seconds = 0.0;
    /// strategy name -> states claimed through it.
    std::map<std::string, uint64_t> strategy_picks;

    static size_t DepthBucket(uint32_t depth);
};

/// Bounded audit ring over strategy decisions: every successful claim
/// records (strategy, hl_pc, depth). The ring keeps the most recent
/// kFrontierPickRing entries for inspection; totals per strategy are
/// kept exactly.
constexpr size_t kFrontierPickRing = 256;

class FrontierInspector
{
  public:
    struct Pick {
        uint64_t seq = 0;
        uint64_t hl_pc = 0;
        uint32_t depth = 0;
        /// Stable string (a literal or interned name owned by the
        /// caller's strategy); the ring never copies it.
        const char* strategy = nullptr;
    };

    void RecordPick(const char* strategy, uint64_t hl_pc, uint32_t depth);

    /// Most recent picks, oldest first.
    std::vector<Pick> RecentPicks() const;

    /// Exact per-strategy totals over the whole run (not just the ring).
    std::map<std::string, uint64_t> PickCounts() const;

  private:
    mutable std::mutex mutex_;
    std::array<Pick, kFrontierPickRing> ring_{};
    uint64_t next_seq_ = 0;
    std::map<std::string, uint64_t> counts_;
};

// ---------------------------------------------------------------------------
// Serialization and rendering

/// Serializes a snapshot as one JSON object:
///   {"dropped_locations":n,
///    "workloads":[{"workload":w,"locations":[
///        {"hl_pc":"0x..","parent":"0x..",...counters...},...]},...]}
/// hl_pc and parent use the hex-string convention for 64-bit
/// identities; "parent" is omitted when no predecessor was recorded.
void WriteAttributionSnapshot(support::JsonWriter& json,
                              const AttributionSnapshot& snapshot);

/// Inverse of WriteAttributionSnapshot. Every field the writer always
/// emits is required (dropped_locations, hl_pc and each counter column),
/// so a missing or mistyped one returns false with \p error instead of
/// decoding as 0; "parent" stays optional, and unknown keys are skipped.
bool DecodeAttributionSnapshot(const support::JsonValue& object,
                               AttributionSnapshot* snapshot,
                               std::string* error);

/// Renders the folded-stack form consumed by standard flamegraph tools:
/// one `workload;0xroot;...;0xleaf value` line per location, where the
/// chain is the location's discovery-parent chain (cycle-guarded,
/// depth-capped) and value is the location's step count (its total
/// charge count when it has no steps, so pure-solver locations still
/// appear).
std::string RenderAttributionFoldedStacks(
    const AttributionSnapshot& snapshot);

/// Renders the "hot locations" monitor panel: the top \p top_n
/// locations by solver-seconds and by fingerprints per solver-second
/// (yield), fixed-width columns, one location per row. Empty string for
/// an empty snapshot.
std::string RenderHotLocations(const AttributionSnapshot& snapshot,
                               size_t top_n);

/// Serializes a frontier snapshot (report use; nothing decodes it).
void WriteFrontierSnapshot(support::JsonWriter& json,
                           const FrontierSnapshot& frontier);

}  // namespace chef::obs

#endif  // CHEF_OBS_ATTRIBUTION_H_
