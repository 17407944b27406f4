#ifndef CHEF_SERVICE_CORPUS_H_
#define CHEF_SERVICE_CORPUS_H_

/// \file
/// Shared, deduplicated test corpus.
///
/// Worker threads running independent symbolic-test sessions offer their
/// relevant test cases here. Entries are keyed by (workload id, high-level
/// path fingerprint), so the same high-level path rediscovered by another
/// session — or the same session re-run under a different seed — collapses
/// to one corpus entry. All operations are mutex-guarded; the corpus is
/// the only data shared between workers.
///
/// For the distributed shard layer the corpus also speaks deltas: each
/// local insertion gets a monotonic sequence number, Snapshot(source,
/// since) cuts the local-origin entries newer than a high-water mark
/// (plus the current per-workload yield view), and MergeFrom() ingests a
/// remote shard's delta — fingerprints become remote-origin entries that
/// dedup local rediscovery, and the remote yield view is kept *per
/// source* and combined commutatively into YieldFor, so merge order
/// between shards cannot change the merged state.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace chef::service {

class TestCorpus
{
  public:
    /// One deduplicated high-level test case.
    struct Entry {
        std::string workload;
        /// Session-independent high-level path fingerprint
        /// (TestCase::hl_path_fingerprint).
        uint64_t fingerprint = 0;
        /// Job that first contributed the entry (scheduling-dependent).
        size_t job_index = 0;
        std::string outcome_kind;
        std::string outcome_detail;
        size_t hl_length = 0;
        uint64_t ll_steps = 0;
        /// Concrete input assignment (variable id, value) reproducing the
        /// path.
        std::vector<std::pair<uint32_t, uint64_t>> inputs;
        /// Entry arrived via MergeFrom (another shard discovered it), not
        /// a local Insert. Remote entries dedup local rediscovery but are
        /// excluded from outgoing deltas — the discovering shard reports
        /// them, so a gossip round-trip cannot echo entries forever.
        bool remote = false;
        /// Local insertion order (1-based; assigned under the mutex).
        /// Snapshot(source, since) cuts on this.
        uint64_t sequence = 0;
    };

    /// The dedup identity. Entries are keyed on the actual pair (the
    /// hash below is bucketing only), so distinct paths can never be
    /// silently merged by a hash collision at this layer.
    using Key = std::pair<std::string, uint64_t>;

    /// Per-workload corpus-yield telemetry, recorded once per completed
    /// job and read by the batch scheduler to weight pending jobs by
    /// their workload's expected new-fingerprint yield.
    struct WorkloadYield {
        /// Completed jobs recorded for the workload so far.
        uint64_t jobs_recorded = 0;
        /// Candidates offered to / accepted by the corpus, summed over
        /// those jobs.
        uint64_t offered_total = 0;
        uint64_t accepted_total = 0;
        /// Exponentially decayed accepted-entries-per-job (the most
        /// recent job weighs half): the scheduler's expected yield for
        /// the workload's next job.
        double decayed_yield = 0.0;
        /// Completed jobs in a row that inserted nothing new (reset by
        /// any accepted entry). Feeds the plateau rule.
        uint64_t consecutive_zero_yield = 0;
    };

    /// Ordered so serialization and comparison are deterministic.
    using YieldMap = std::map<std::string, WorkloadYield>;

    /// A corpus delta: what one shard ships to another. Entries are the
    /// source's local-origin discoveries newer than the requested
    /// high-water mark; yields are the source's full current view (small
    /// and cumulative, so resending the whole map each round keeps the
    /// merge idempotent).
    struct Delta {
        /// Identity of the producing corpus ("shard0", "coordinator").
        std::string source;
        /// Sequence high-water mark after this delta; feed back as
        /// `since` to get only newer entries next time.
        uint64_t sequence = 0;
        std::vector<Entry> entries;
        YieldMap yields;
    };

    /// Outcome of one MergeFrom call.
    struct MergeStats {
        /// Entries newly inserted from the delta.
        size_t inserted = 0;
        /// Entries already present (the cross-shard dedup count at the
        /// receiver: both shards discovered, or already gossiped, the
        /// same high-level path).
        size_t duplicates = 0;
        /// The merged per-workload yield view after the merge, for the
        /// workloads the delta touched (the ones whose merged state can
        /// have changed) — local state combined with every remote
        /// source seen so far, exactly what YieldFor serves. Other
        /// workloads are available through YieldFor on demand.
        YieldMap merged_yields;
    };

    /// Counts the cross-shard dedup telemetry into \p metrics from here
    /// on: corpus.remote_entries (entries that arrived via MergeFrom)
    /// and corpus.remote_duplicate_hits (local Insert() calls rejected
    /// because a *remote-origin* entry already covered the key —
    /// exploration work another shard's gossip proved redundant).
    void CountInto(obs::MetricsRegistry* metrics);

    /// Inserts the entry if its (workload, fingerprint) key is new.
    /// Returns true on insertion, false if a duplicate was already
    /// present (the existing entry is kept).
    bool Insert(Entry entry);

    bool Contains(const std::string& workload, uint64_t fingerprint) const;

    size_t size() const;

    /// Copy of entries ordered by (workload, fingerprint) — a stable
    /// order independent of discovery interleaving. With max_entries > 0
    /// only the first max_entries in that order are copied (entries can
    /// carry large input vectors; don't copy a huge corpus to emit a
    /// capped report).
    std::vector<Entry> Snapshot(size_t max_entries = 0) const;

    /// Delta snapshot for the shard layer: local-origin entries with
    /// sequence > \p since_sequence, ordered by (workload, fingerprint),
    /// plus the current local yield view, stamped with \p source.
    /// Remote-origin entries are never re-exported.
    Delta Snapshot(const std::string& source,
                   uint64_t since_sequence) const;

    /// Ingests a remote delta: entries are inserted as remote-origin
    /// (deduplicating against everything already present), and the
    /// delta's yield view *replaces* the stored view for delta.source.
    /// Keeping remote yields per source and combining them on read makes
    /// the merged state independent of merge order — merging shard A's
    /// delta then shard B's yields the same corpus and yield view as B
    /// then A (the regression contract for gossip).
    MergeStats MergeFrom(const Delta& delta);

    /// Sorted dedup keys. Two corpora built from the same jobs under
    /// different worker counts compare equal here.
    std::vector<Key> Keys() const;

    /// Records one completed job's corpus yield for its workload:
    /// \p offered candidates were presented, \p accepted of them were
    /// globally new.
    void RecordJobYield(const std::string& workload, size_t offered,
                        size_t accepted);

    /// Merged yield state for a workload — the local record combined
    /// with every remote source's view (sums for totals, max for the
    /// zero-yield streak, jobs-weighted mean for the decayed yield; all
    /// commutative). Zero-initialized (jobs_recorded == 0) when nothing
    /// local or remote has been recorded.
    WorkloadYield YieldFor(const std::string& workload) const;

    /// The local-only yield view (what Snapshot exports — never the
    /// merged view, or gossip would compound other shards' data back
    /// into itself through a round-trip).
    YieldMap LocalYields() const;

    void Clear();

  private:
    struct KeyHash {
        size_t operator()(const Key& key) const;
    };

    /// Merged local ⊕ remote view for one workload; caller holds mutex_.
    WorkloadYield CombinedYieldLocked(const std::string& workload) const;

    mutable std::mutex mutex_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
    std::unordered_map<std::string, WorkloadYield> yields_;
    /// Remote yield views keyed by source, each replaced wholesale by
    /// MergeFrom for that source.
    std::map<std::string, YieldMap> remote_yields_;
    uint64_t next_sequence_ = 0;
    /// Null unless CountInto was called.
    obs::Counter* m_remote_entries_ = nullptr;
    obs::Counter* m_remote_duplicate_hits_ = nullptr;
};

}  // namespace chef::service

#endif  // CHEF_SERVICE_CORPUS_H_
