#include "service/corpus.h"

#include <algorithm>

#include "support/strings.h"

namespace chef::service {

namespace {

bool
EntryOrder(const TestCorpus::Entry& a, const TestCorpus::Entry& b)
{
    if (a.workload != b.workload) {
        return a.workload < b.workload;
    }
    return a.fingerprint < b.fingerprint;
}

}  // namespace

void
TestCorpus::CountInto(obs::MetricsRegistry* metrics)
{
    std::lock_guard<std::mutex> lock(mutex_);
    m_remote_entries_ = metrics->counter("corpus.remote_entries");
    m_remote_duplicate_hits_ =
        metrics->counter("corpus.remote_duplicate_hits");
}

size_t
TestCorpus::KeyHash::operator()(const Key& key) const
{
    return static_cast<size_t>(HashCombine(
        FnvHash(key.first.data(), key.first.size()), key.second));
}

bool
TestCorpus::Insert(Entry entry)
{
    Key key{entry.workload, entry.fingerprint};
    std::lock_guard<std::mutex> lock(mutex_);
    entry.remote = false;
    entry.sequence = next_sequence_ + 1;
    auto [it, inserted] = entries_.emplace(std::move(key), std::move(entry));
    if (inserted) {
        ++next_sequence_;
        return true;
    }
    if (it->second.remote) {
        // A shard rediscovered a path that gossip already delivered:
        // the duplicate exploration this layer exists to measure.
        if (m_remote_duplicate_hits_ != nullptr) {
            m_remote_duplicate_hits_->Add();
        }
    }
    return false;
}

bool
TestCorpus::Contains(const std::string& workload,
                     uint64_t fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(Key{workload, fingerprint}) > 0;
}

size_t
TestCorpus::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<TestCorpus::Entry>
TestCorpus::Snapshot(size_t max_entries) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Order by identity first (pointers only), then copy just the
    // requested prefix.
    std::vector<const Entry*> ordered;
    ordered.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
        ordered.push_back(&entry);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Entry* a, const Entry* b) {
                  return EntryOrder(*a, *b);
              });
    if (max_entries > 0 && ordered.size() > max_entries) {
        ordered.resize(max_entries);
    }
    std::vector<Entry> entries;
    entries.reserve(ordered.size());
    for (const Entry* entry : ordered) {
        entries.push_back(*entry);
    }
    return entries;
}

TestCorpus::Delta
TestCorpus::Snapshot(const std::string& source,
                     uint64_t since_sequence) const
{
    Delta delta;
    delta.source = source;
    std::lock_guard<std::mutex> lock(mutex_);
    delta.sequence = next_sequence_;
    for (const auto& [key, entry] : entries_) {
        if (!entry.remote && entry.sequence > since_sequence) {
            delta.entries.push_back(entry);
        }
    }
    std::sort(delta.entries.begin(), delta.entries.end(), EntryOrder);
    for (const auto& [workload, yield] : yields_) {
        delta.yields.emplace(workload, yield);
    }
    return delta;
}

TestCorpus::MergeStats
TestCorpus::MergeFrom(const Delta& delta)
{
    MergeStats stats;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& incoming : delta.entries) {
        Key key{incoming.workload, incoming.fingerprint};
        Entry entry = incoming;
        entry.remote = true;
        entry.sequence = next_sequence_ + 1;
        auto [it, inserted] =
            entries_.emplace(std::move(key), std::move(entry));
        if (inserted) {
            ++next_sequence_;
            if (m_remote_entries_ != nullptr) {
                m_remote_entries_->Add();
            }
            ++stats.inserted;
        } else {
            ++stats.duplicates;
        }
    }
    // Replace (not accumulate) this source's yield view: deltas carry
    // the source's full cumulative state, so replacement keeps repeated
    // gossip idempotent and the combined view order-independent.
    remote_yields_[delta.source] = delta.yields;
    // Report the merged view for the workloads this delta touched —
    // the ones whose merged state can have changed. Bounding the work
    // to O(delta) matters: the gossip path merges up to dozens of
    // deltas per second while workers contend on this mutex, and that
    // path discards the map anyway (YieldFor serves the same view on
    // demand for everything else).
    for (const auto& [workload, yield] : delta.yields) {
        (void)yield;
        stats.merged_yields.emplace(workload,
                                    CombinedYieldLocked(workload));
    }
    for (const Entry& incoming : delta.entries) {
        if (stats.merged_yields.count(incoming.workload) == 0) {
            stats.merged_yields.emplace(
                incoming.workload, CombinedYieldLocked(incoming.workload));
        }
    }
    return stats;
}

std::vector<TestCorpus::Key>
TestCorpus::Keys() const
{
    std::vector<Key> keys;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        keys.reserve(entries_.size());
        for (const auto& [key, entry] : entries_) {
            keys.push_back(key);
        }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
TestCorpus::RecordJobYield(const std::string& workload, size_t offered,
                           size_t accepted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    WorkloadYield& yield = yields_[workload];
    yield.offered_total += offered;
    yield.accepted_total += accepted;
    // EWMA with the first job seeding the estimate outright; alpha = 0.5
    // so the estimate tracks the (typically monotonically falling) yield
    // curve within a couple of jobs.
    yield.decayed_yield =
        yield.jobs_recorded == 0
            ? static_cast<double>(accepted)
            : 0.5 * (yield.decayed_yield + static_cast<double>(accepted));
    ++yield.jobs_recorded;
    yield.consecutive_zero_yield =
        accepted == 0 ? yield.consecutive_zero_yield + 1 : 0;
}

TestCorpus::WorkloadYield
TestCorpus::CombinedYieldLocked(const std::string& workload) const
{
    // Commutative combine across {local} ∪ remote sources: sums for the
    // counters, max for the zero-yield streak (any shard seeing the
    // workload flat is plateau evidence), jobs-weighted mean for the
    // decayed yield. Every operator is symmetric and associative, so
    // the merged view cannot depend on the order deltas arrived in.
    WorkloadYield combined;
    double yield_weight = 0.0;
    double yield_sum = 0.0;
    const auto accumulate = [&](const WorkloadYield& yield) {
        combined.jobs_recorded += yield.jobs_recorded;
        combined.offered_total += yield.offered_total;
        combined.accepted_total += yield.accepted_total;
        combined.consecutive_zero_yield = std::max(
            combined.consecutive_zero_yield, yield.consecutive_zero_yield);
        yield_weight += static_cast<double>(yield.jobs_recorded);
        yield_sum += yield.decayed_yield *
                     static_cast<double>(yield.jobs_recorded);
    };
    const auto local = yields_.find(workload);
    if (local != yields_.end()) {
        accumulate(local->second);
    }
    for (const auto& [source, yields] : remote_yields_) {
        (void)source;
        const auto it = yields.find(workload);
        if (it != yields.end()) {
            accumulate(it->second);
        }
    }
    combined.decayed_yield =
        yield_weight > 0.0 ? yield_sum / yield_weight : 0.0;
    return combined;
}

TestCorpus::WorkloadYield
TestCorpus::YieldFor(const std::string& workload) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return CombinedYieldLocked(workload);
}

TestCorpus::YieldMap
TestCorpus::LocalYields() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    YieldMap yields;
    for (const auto& [workload, yield] : yields_) {
        yields.emplace(workload, yield);
    }
    return yields;
}

void
TestCorpus::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    yields_.clear();
    remote_yields_.clear();
    next_sequence_ = 0;
}

}  // namespace chef::service
