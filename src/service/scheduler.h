#ifndef CHEF_SERVICE_SCHEDULER_H_
#define CHEF_SERVICE_SCHEDULER_H_

/// \file
/// Yield-weighted batch scheduling.
///
/// BatchScheduler replaces RunBatch's FIFO index-race: workers pull from
/// a mutex-guarded priority queue whose order derives from the corpus's
/// per-workload yield tracking (TestCorpus::WorkloadYield) — exploration
/// time goes where high-level coverage is still climbing, the paper's
/// CUPA argument lifted to the batch level. The queue re-sorts lazily as
/// completed jobs land new yield data, and the opt-in plateau rule
/// (service/job.h) first deprioritizes, then cancels, workloads whose
/// yield has flattened. Ordering never changes *per-job* results for
/// bounded jobs (each session is seeded independently), so the service's
/// worker-count determinism contract is unaffected; only plateau
/// cancellation changes what runs.

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/obs.h"
#include "service/corpus.h"
#include "service/job.h"

namespace chef::service {

/// Hands pending jobs of one batch to free workers, highest expected
/// yield first. All jobs are known at construction; Acquire never
/// blocks — an empty queue means the batch has drained.
class BatchScheduler
{
  public:
    struct Options {
        SchedulePolicy policy = SchedulePolicy::kYieldPriority;
        /// Apply the plateau rule (kPlateauDeprioritizeAfter,
        /// kPlateauCancelAfter).
        bool plateau = false;
        /// Telemetry (obs/obs.h): sched/resort spans, instant markers on
        /// plateau cancellations, scheduler.* counters.
        obs::ObsContext obs;
    };

    struct Dispatch {
        size_t job_index = 0;
        /// The job was popped only to be reported cancelled: its
        /// workload reached kPlateauCancelAfter before the job was
        /// dispatched. The caller records a cancelled result instead
        /// of running it.
        bool plateau_cancelled = false;
    };

    /// \p workloads holds one workload id per submitted job (indexed by
    /// job index). Yield state is recorded into and read from \p corpus,
    /// which must outlive the scheduler.
    BatchScheduler(std::vector<std::string> workloads, TestCorpus* corpus,
                   Options options);

    /// Pops the highest-priority pending job. Returns false when no
    /// pending jobs remain.
    bool Acquire(Dispatch* dispatch);

    /// Records a dispatched job's corpus yield (\p offered candidates,
    /// \p accepted new) and re-sorts pending jobs against the updated
    /// expectations. Also advances the plateau state machine.
    void OnJobCompleted(const std::string& workload, size_t offered,
                        size_t accepted);

    /// Re-reads every pending workload's (merged) yield state from the
    /// corpus: marks the queue for a re-sort and re-runs the plateau
    /// cancellation check. Called when yield state changed *outside* a
    /// local job completion — the shard layer merging a remote gossip
    /// delta — so a workload another shard has already flattened is
    /// deprioritized or cancelled here without burning local jobs to
    /// rediscover the plateau.
    void NotifyYieldsChanged();

    size_t pending() const;

  private:
    /// Re-sorts pending_ so the back holds the next job to dispatch.
    void Resort();

    /// Cancels \p workload's pending jobs once its zero-yield streak
    /// reaches kPlateauCancelAfter, with telemetry for a newly cancelled
    /// workload (counter + instant trace marker). Called with mutex_
    /// held and the plateau rule on.
    void CheckPlateauLocked(const std::string& workload,
                            const TestCorpus::WorkloadYield& yield);

    Options options_;
    std::vector<std::string> workloads_;
    TestCorpus* corpus_;

    mutable std::mutex mutex_;
    /// Pending job indices, next-to-dispatch at the back.
    std::vector<size_t> pending_;
    /// Yield data landed since the last sort.
    bool dirty_ = false;
    /// Workloads past kPlateauCancelAfter; their pending jobs pop as
    /// plateau_cancelled.
    std::unordered_set<std::string> cancelled_workloads_;
};

}  // namespace chef::service

#endif  // CHEF_SERVICE_SCHEDULER_H_
