#include "obs/attribution.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "support/json.h"

namespace chef::obs {

namespace {

/// splitmix64 finalizer: hl_pc values are small and clustered, so the
/// raw key would pile probes into one corner of the table.
uint64_t
MixKey(uint64_t key)
{
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return key;
}

thread_local uint64_t t_ambient_hlpc = 0;

}  // namespace

// ---------------------------------------------------------------------------
// AttributionSnapshot

bool
AttributionSnapshot::empty() const
{
    return workloads.empty() && dropped_locations == 0;
}

void
AttributionSnapshot::MergeFrom(const AttributionSnapshot& other)
{
    dropped_locations += other.dropped_locations;
    for (const auto& [workload, table] : other.workloads) {
        std::map<uint64_t, AttributionRow>& mine = workloads[workload];
        for (const auto& [hl_pc, row] : table) {
            AttributionRow& target = mine[hl_pc];
            target.solver_nanos += row.solver_nanos;
            target.solver_queries += row.solver_queries;
            target.steps += row.steps;
            target.forks += row.forks;
            target.assume_failures += row.assume_failures;
            target.new_fingerprints += row.new_fingerprints;
            target.runs += row.runs;
            // min over recorded parents: a pure function of the operand
            // set, so merge order cannot change the result.
            target.parent = std::min(target.parent, row.parent);
        }
    }
}

double
AttributionSnapshot::SolverSecondsTotal() const
{
    uint64_t nanos = 0;
    for (const auto& [workload, table] : workloads) {
        (void)workload;
        for (const auto& [hl_pc, row] : table) {
            (void)hl_pc;
            nanos += row.solver_nanos;
        }
    }
    return static_cast<double>(nanos) / 1e9;
}

uint64_t
AttributionSnapshot::NewFingerprintsTotal() const
{
    uint64_t total = 0;
    for (const auto& [workload, table] : workloads) {
        (void)workload;
        for (const auto& [hl_pc, row] : table) {
            (void)hl_pc;
            total += row.new_fingerprints;
        }
    }
    return total;
}

bool
AttributionCountsEqual(const AttributionSnapshot& a,
                       const AttributionSnapshot& b)
{
    if (a.workloads.size() != b.workloads.size()) {
        return false;
    }
    for (const auto& [workload, table] : a.workloads) {
        const auto other_it = b.workloads.find(workload);
        if (other_it == b.workloads.end() ||
            other_it->second.size() != table.size()) {
            return false;
        }
        for (const auto& [hl_pc, row] : table) {
            const auto row_it = other_it->second.find(hl_pc);
            if (row_it == other_it->second.end()) {
                return false;
            }
            const AttributionRow& other = row_it->second;
            if (row.solver_queries != other.solver_queries ||
                row.steps != other.steps || row.forks != other.forks ||
                row.assume_failures != other.assume_failures ||
                row.new_fingerprints != other.new_fingerprints ||
                row.runs != other.runs) {
                return false;
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// AttributionProfiler

AttributionProfiler::AttributionProfiler(std::string workload)
    : workload_(std::move(workload)),
      stripes_(new Stripe[kMetricStripes])
{
}

AttributionProfiler::Cell*
AttributionProfiler::FindCell(Stripe& stripe, uint64_t key)
{
    const uint64_t mask = kAttributionCellsPerStripe - 1;
    const uint64_t start = MixKey(key) & mask;
    for (size_t probe = 0; probe < kAttributionCellsPerStripe; ++probe) {
        Cell& cell = stripe.cells[(start + probe) & mask];
        uint64_t current = cell.key.load(std::memory_order_acquire);
        if (current == key) {
            return &cell;
        }
        if (current == kEmptyKey) {
            if (cell.key.compare_exchange_strong(
                    current, key, std::memory_order_acq_rel)) {
                return &cell;
            }
            if (current == key) {  // Lost the race to ourselves-by-key.
                return &cell;
            }
        }
    }
    return nullptr;  // Stripe full; the caller spills to a sibling.
}

AttributionProfiler::Cell*
AttributionProfiler::LocateCell(uint64_t key, Stripe** home)
{
    const size_t start = ThisThreadStripe();
    *home = &stripes_[start];
    for (size_t i = 0; i < kMetricStripes; ++i) {
        Cell* cell =
            FindCell(stripes_[(start + i) % kMetricStripes], key);
        if (cell != nullptr) {
            return cell;
        }
    }
    return nullptr;  // Every stripe full; overflow aggregate it is.
}

void
AttributionProfiler::Charge(uint64_t hl_pc, CounterKind kind,
                            uint64_t delta)
{
    Stripe* home = nullptr;
    Cell* cell = LocateCell(hl_pc, &home);
    if (cell == nullptr) {
        home->dropped.fetch_add(delta, std::memory_order_relaxed);
        cell = &home->overflow;
    }
    cell->counts[kind].fetch_add(delta, std::memory_order_relaxed);
}

void
AttributionProfiler::ChargeWithParent(uint64_t hl_pc, uint64_t parent,
                                      CounterKind kind, uint64_t delta)
{
    Stripe* home = nullptr;
    Cell* cell = LocateCell(hl_pc, &home);
    if (cell == nullptr) {
        home->dropped.fetch_add(delta, std::memory_order_relaxed);
        cell = &home->overflow;
    } else if (parent != kAttributionNoParent && parent != hl_pc) {
        uint64_t expected = kAttributionNoParent;
        cell->parent.compare_exchange_strong(expected, parent,
                                             std::memory_order_relaxed);
    }
    cell->counts[kind].fetch_add(delta, std::memory_order_relaxed);
}

void
AttributionProfiler::ChargeSolver(uint64_t nanos)
{
    Stripe* home = nullptr;
    Cell* cell = LocateCell(t_ambient_hlpc, &home);
    if (cell == nullptr) {
        home->dropped.fetch_add(1, std::memory_order_relaxed);
        cell = &home->overflow;
    }
    cell->counts[kSolverNanos].fetch_add(nanos,
                                         std::memory_order_relaxed);
    cell->counts[kSolverQueries].fetch_add(1, std::memory_order_relaxed);
}

AttributionSnapshot
AttributionProfiler::Snapshot() const
{
    AttributionSnapshot snapshot;
    std::map<uint64_t, AttributionRow>& table =
        snapshot.workloads[workload_];
    const auto fold = [&table](uint64_t key, const Cell& cell) {
        AttributionRow& row = table[key];
        row.solver_nanos +=
            cell.counts[kSolverNanos].load(std::memory_order_relaxed);
        row.solver_queries +=
            cell.counts[kSolverQueries].load(std::memory_order_relaxed);
        row.steps += cell.counts[kSteps].load(std::memory_order_relaxed);
        row.forks += cell.counts[kForks].load(std::memory_order_relaxed);
        row.assume_failures +=
            cell.counts[kAssumeFailures].load(std::memory_order_relaxed);
        row.new_fingerprints +=
            cell.counts[kNewFingerprints].load(std::memory_order_relaxed);
        row.runs += cell.counts[kRuns].load(std::memory_order_relaxed);
        row.parent = std::min(
            row.parent, cell.parent.load(std::memory_order_relaxed));
    };
    for (size_t s = 0; s < kMetricStripes; ++s) {
        const Stripe& stripe = stripes_[s];
        for (const Cell& cell : stripe.cells) {
            const uint64_t key = cell.key.load(std::memory_order_acquire);
            if (key != kEmptyKey) {
                fold(key, cell);
            }
        }
        uint64_t overflow_total = 0;
        for (const auto& count : stripe.overflow.counts) {
            overflow_total += count.load(std::memory_order_relaxed);
        }
        if (overflow_total > 0) {
            fold(kAttributionOverflowHlPc, stripe.overflow);
        }
        snapshot.dropped_locations +=
            stripe.dropped.load(std::memory_order_relaxed);
    }
    // Never-charged cells can appear when a CAS claimed a key but the
    // charging add has not landed yet; drop all-zero rows so snapshots
    // of quiescent profilers are stable.
    for (auto it = table.begin(); it != table.end();) {
        if (it->second.TotalCharges() == 0 &&
            it->second.solver_nanos == 0) {
            it = table.erase(it);
        } else {
            ++it;
        }
    }
    if (table.empty()) {
        snapshot.workloads.erase(workload_);
    }
    return snapshot;
}

// ---------------------------------------------------------------------------
// ScopedLocation

ScopedLocation::ScopedLocation(uint64_t hl_pc) : saved_(t_ambient_hlpc)
{
    t_ambient_hlpc = hl_pc;
}

ScopedLocation::~ScopedLocation()
{
    t_ambient_hlpc = saved_;
}

uint64_t
CurrentAmbientLocation()
{
    return t_ambient_hlpc;
}

// ---------------------------------------------------------------------------
// Frontier introspection

size_t
FrontierSnapshot::DepthBucket(uint32_t depth)
{
    size_t bucket = 0;
    uint64_t value = static_cast<uint64_t>(depth) + 1;
    while (value > 1 && bucket + 1 < kFrontierDepthBuckets) {
        value >>= 1;
        ++bucket;
    }
    return bucket;
}

void
FrontierInspector::RecordPick(const char* strategy, uint64_t hl_pc,
                              uint32_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Pick& slot = ring_[next_seq_ % kFrontierPickRing];
    slot.seq = next_seq_++;
    slot.hl_pc = hl_pc;
    slot.depth = depth;
    slot.strategy = strategy;
    ++counts_[strategy == nullptr ? "" : strategy];
}

std::vector<FrontierInspector::Pick>
FrontierInspector::RecentPicks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Pick> picks;
    const uint64_t count =
        next_seq_ < kFrontierPickRing ? next_seq_ : kFrontierPickRing;
    picks.reserve(count);
    for (uint64_t i = next_seq_ - count; i < next_seq_; ++i) {
        picks.push_back(ring_[i % kFrontierPickRing]);
    }
    return picks;
}

std::map<std::string, uint64_t>
FrontierInspector::PickCounts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

// ---------------------------------------------------------------------------
// Serialization and rendering

void
WriteAttributionSnapshot(support::JsonWriter& json,
                         const AttributionSnapshot& snapshot)
{
    json.BeginObject();
    json.Key("dropped_locations"), json.Value(snapshot.dropped_locations);
    json.Key("workloads"), json.BeginArray();
    for (const auto& [workload, table] : snapshot.workloads) {
        json.BeginObject();
        json.Key("workload"), json.Value(workload);
        json.Key("locations"), json.BeginArray();
        for (const auto& [hl_pc, row] : table) {
            json.BeginObject();
            json.Key("hl_pc"), json.HexValue(hl_pc);
            if (row.parent != kAttributionNoParent) {
                json.Key("parent"), json.HexValue(row.parent);
            }
            json.Key("solver_nanos"), json.Value(row.solver_nanos);
            json.Key("solver_queries"), json.Value(row.solver_queries);
            json.Key("steps"), json.Value(row.steps);
            json.Key("forks"), json.Value(row.forks);
            json.Key("assume_failures"), json.Value(row.assume_failures);
            json.Key("new_fingerprints"), json.Value(row.new_fingerprints);
            json.Key("runs"), json.Value(row.runs);
            json.EndObject();
        }
        json.EndArray();
        json.EndObject();
    }
    json.EndArray();
    json.EndObject();
}

bool
DecodeAttributionSnapshot(const support::JsonValue& object,
                          AttributionSnapshot* snapshot,
                          std::string* error)
{
    snapshot->workloads.clear();
    snapshot->dropped_locations = 0;
    if (!object.GetUint64("dropped_locations",
                          &snapshot->dropped_locations)) {
        *error = "attribution: missing or invalid dropped_locations";
        return false;
    }
    const support::JsonValue* workloads = object.Find("workloads");
    if (workloads == nullptr ||
        workloads->kind != support::JsonValue::Kind::kArray) {
        *error = "attribution: missing workloads array";
        return false;
    }
    for (const support::JsonValue& entry : workloads->items) {
        std::string workload;
        if (!entry.GetString("workload", &workload)) {
            *error = "attribution: workload entry without a name";
            return false;
        }
        const support::JsonValue* locations = entry.Find("locations");
        if (locations == nullptr ||
            locations->kind != support::JsonValue::Kind::kArray) {
            *error = "attribution: workload entry without locations";
            return false;
        }
        std::map<uint64_t, AttributionRow>& table =
            snapshot->workloads[workload];
        for (const support::JsonValue& location : locations->items) {
            uint64_t hl_pc = 0;
            if (!location.GetUint64("hl_pc", &hl_pc)) {
                *error = "attribution: location without hl_pc";
                return false;
            }
            AttributionRow& row = table[hl_pc];
            // "parent" is written only for locations that have one.
            if (location.Find("parent") != nullptr &&
                !location.GetUint64("parent", &row.parent)) {
                *error = "attribution: invalid parent";
                return false;
            }
            const std::pair<const char*, uint64_t*> columns[] = {
                {"solver_nanos", &row.solver_nanos},
                {"solver_queries", &row.solver_queries},
                {"steps", &row.steps},
                {"forks", &row.forks},
                {"assume_failures", &row.assume_failures},
                {"new_fingerprints", &row.new_fingerprints},
                {"runs", &row.runs},
            };
            for (const auto& [key, out] : columns) {
                if (!location.GetUint64(key, out)) {
                    *error = std::string("attribution: missing or invalid ") +
                             key;
                    return false;
                }
            }
        }
    }
    return true;
}

std::string
RenderAttributionFoldedStacks(const AttributionSnapshot& snapshot)
{
    std::string out;
    char buffer[64];
    for (const auto& [workload, table] : snapshot.workloads) {
        for (const auto& [hl_pc, row] : table) {
            const uint64_t value =
                row.steps != 0 ? row.steps : row.TotalCharges();
            if (value == 0) {
                continue;
            }
            // Discovery-parent chain, leaf to root; cycle-guarded by
            // the membership scan, depth-capped by the chain size.
            std::vector<uint64_t> chain;
            uint64_t current = hl_pc;
            while (chain.size() < 64) {
                chain.push_back(current);
                const auto it = table.find(current);
                if (it == table.end() ||
                    it->second.parent == kAttributionNoParent) {
                    break;
                }
                const uint64_t parent = it->second.parent;
                if (std::find(chain.begin(), chain.end(), parent) !=
                    chain.end()) {
                    break;
                }
                current = parent;
            }
            out += workload;
            for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
                std::snprintf(buffer, sizeof(buffer), ";0x%" PRIx64, *it);
                out += buffer;
            }
            std::snprintf(buffer, sizeof(buffer), " %" PRIu64 "\n",
                          value);
            out += buffer;
        }
    }
    return out;
}

namespace {

struct HotRow {
    const std::string* workload;
    uint64_t hl_pc;
    const AttributionRow* row;
};

void
AppendHotTable(std::string* out, const std::vector<HotRow>& rows,
               size_t top_n)
{
    char line[192];
    std::snprintf(line, sizeof(line),
                  "  %-18s %-12s %9s %8s %6s %6s %12s\n", "workload",
                  "hl_pc", "solver_s", "queries", "forks", "new_fp",
                  "fp/solver_s");
    *out += line;
    for (size_t i = 0; i < rows.size() && i < top_n; ++i) {
        const HotRow& hot = rows[i];
        const double solver_seconds =
            static_cast<double>(hot.row->solver_nanos) / 1e9;
        const double yield =
            solver_seconds > 0.0
                ? static_cast<double>(hot.row->new_fingerprints) /
                      solver_seconds
                : 0.0;
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%" PRIx64, hot.hl_pc);
        std::snprintf(line, sizeof(line),
                      "  %-18.18s %-12s %9.4f %8" PRIu64 " %6" PRIu64
                      " %6" PRIu64 " %12.1f\n",
                      hot.workload->c_str(), hex, solver_seconds,
                      hot.row->solver_queries, hot.row->forks,
                      hot.row->new_fingerprints, yield);
        *out += line;
    }
}

}  // namespace

std::string
RenderHotLocations(const AttributionSnapshot& snapshot, size_t top_n)
{
    std::vector<HotRow> rows;
    for (const auto& [workload, table] : snapshot.workloads) {
        for (const auto& [hl_pc, row] : table) {
            rows.push_back(HotRow{&workload, hl_pc, &row});
        }
    }
    if (rows.empty()) {
        return "";
    }
    std::string out;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const HotRow& a, const HotRow& b) {
                         return a.row->solver_nanos > b.row->solver_nanos;
                     });
    out += "hot locations (by solver seconds)\n";
    AppendHotTable(&out, rows, top_n);
    // Yield ranking: fingerprints per solver-second. Locations that
    // produced fingerprints for ~no solver time are the best deals of
    // all; rank them first.
    std::vector<HotRow> yielding;
    for (const HotRow& hot : rows) {
        if (hot.row->new_fingerprints > 0) {
            yielding.push_back(hot);
        }
    }
    if (!yielding.empty()) {
        std::stable_sort(
            yielding.begin(), yielding.end(),
            [](const HotRow& a, const HotRow& b) {
                const double a_nanos =
                    static_cast<double>(a.row->solver_nanos);
                const double b_nanos =
                    static_cast<double>(b.row->solver_nanos);
                // fp/ns cross-multiplied to dodge divide-by-zero.
                return static_cast<double>(a.row->new_fingerprints) *
                           b_nanos >
                       static_cast<double>(b.row->new_fingerprints) *
                           a_nanos;
            });
        out += "hot locations (by fingerprints per solver second)\n";
        AppendHotTable(&out, yielding, top_n);
    }
    return out;
}

void
WriteFrontierSnapshot(support::JsonWriter& json,
                      const FrontierSnapshot& frontier)
{
    json.BeginObject();
    json.Key("pending"), json.Value(frontier.pending);
    json.Key("in_flight"), json.Value(frontier.in_flight);
    json.Key("nodes"), json.Value(frontier.nodes);
    json.Key("mean_branching"), json.Value(frontier.mean_branching);
    json.Key("lease_age_max_seconds"),
        json.Value(frontier.lease_age_max_seconds);
    json.Key("lease_age_mean_seconds"),
        json.Value(frontier.lease_age_mean_seconds);
    json.Key("depth_histogram"), json.BeginArray();
    for (size_t bucket = 0; bucket < kFrontierDepthBuckets; ++bucket) {
        if (frontier.depth_histogram[bucket] == 0) {
            continue;
        }
        json.BeginArray();
        json.Value(bucket);
        json.Value(frontier.depth_histogram[bucket]);
        json.EndArray();
    }
    json.EndArray();
    json.Key("strategy_picks"), json.BeginObject();
    for (const auto& [strategy, picks] : frontier.strategy_picks) {
        json.Key(strategy.c_str()), json.Value(picks);
    }
    json.EndObject();
    json.EndObject();
}

}  // namespace chef::obs
