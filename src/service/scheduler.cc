#include "service/scheduler.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace chef::service {

const char*
SchedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::kFifo: return "fifo";
      case SchedulePolicy::kYieldPriority: return "yield_priority";
    }
    return "?";
}

const char*
JobEventKindName(JobEvent::Kind kind)
{
    switch (kind) {
      case JobEvent::Kind::kJobStarted: return "job_started";
      case JobEvent::Kind::kJobCompleted: return "job_completed";
    }
    return "?";
}

BatchScheduler::BatchScheduler(std::vector<std::string> workloads,
                               TestCorpus* corpus, Options options)
    : options_(options),
      workloads_(std::move(workloads)),
      corpus_(corpus)
{
    pending_.reserve(workloads_.size());
    // Next-to-dispatch lives at the back, so seed in reverse submission
    // order; under kFifo this vector is never reordered.
    for (size_t index = workloads_.size(); index > 0; --index) {
        pending_.push_back(index - 1);
    }
    // A serially reused corpus may already hold yield history for these
    // workloads; sort before the first dispatch rather than trusting the
    // FIFO seed.
    dirty_ = options_.policy == SchedulePolicy::kYieldPriority;
}

void
BatchScheduler::Resort()
{
    CHEF_OBS_SPAN(span, options_.obs.tracer, "sched/resort", "service");
    if (options_.obs.metrics != nullptr) {
        options_.obs.metrics->counter("scheduler.resorts")->Add();
    }
    // Rank each distinct workload once per sort (YieldFor locks the
    // corpus; don't pay that inside the comparator). Lower tier beats
    // higher; within a tier, higher decayed yield beats lower; the job
    // index breaks every remaining tie, which keeps pure-FIFO order for
    // batches with no yield signal at all.
    struct Rank {
        int tier;      // 0 untried, 1 tried, 2 deprioritized, 3 cancelled
        double yield;
    };
    std::unordered_map<std::string, Rank> ranks;
    for (const size_t index : pending_) {
        const std::string& workload = workloads_[index];
        if (ranks.count(workload) != 0) {
            continue;
        }
        const TestCorpus::WorkloadYield yield = corpus_->YieldFor(workload);
        Rank rank;
        rank.yield = yield.decayed_yield;
        if (cancelled_workloads_.count(workload) != 0) {
            // Drains last: real work first, the (instant) cancellation
            // placeholders when workers have nothing better to do.
            rank.tier = 3;
        } else if (options_.plateau && yield.jobs_recorded > 0 &&
                   yield.consecutive_zero_yield >=
                       kPlateauDeprioritizeAfter) {
            rank.tier = 2;
        } else if (yield.jobs_recorded == 0) {
            // Unknown yield: optimism under uncertainty. Trying every
            // workload once dominates re-running one whose curve is
            // already known (the batch-level CUPA argument).
            rank.tier = 0;
        } else {
            rank.tier = 1;
        }
        ranks.emplace(workload, rank);
    }
    const auto key = [&](size_t index) {
        const Rank& rank = ranks.at(workloads_[index]);
        return std::make_tuple(rank.tier, -rank.yield, index);
    };
    // Worst-first, so the back of the vector is the next dispatch.
    std::sort(pending_.begin(), pending_.end(),
              [&](size_t a, size_t b) { return key(a) > key(b); });
}

bool
BatchScheduler::Acquire(Dispatch* dispatch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) {
        return false;
    }
    if (options_.policy == SchedulePolicy::kYieldPriority && dirty_) {
        Resort();
        dirty_ = false;
    }
    const size_t index = pending_.back();
    pending_.pop_back();
    dispatch->job_index = index;
    dispatch->plateau_cancelled =
        cancelled_workloads_.count(workloads_[index]) != 0;
    return true;
}

void
BatchScheduler::OnJobCompleted(const std::string& workload, size_t offered,
                               size_t accepted)
{
    corpus_->RecordJobYield(workload, offered, accepted);
    const TestCorpus::WorkloadYield yield = corpus_->YieldFor(workload);
    std::lock_guard<std::mutex> lock(mutex_);
    dirty_ = true;
    if (options_.plateau) {
        CheckPlateauLocked(workload, yield);
    }
}

void
BatchScheduler::CheckPlateauLocked(const std::string& workload,
                                   const TestCorpus::WorkloadYield& yield)
{
    if (yield.consecutive_zero_yield < kPlateauCancelAfter ||
        !cancelled_workloads_.insert(workload).second) {
        return;
    }
    if (options_.obs.metrics != nullptr) {
        options_.obs.metrics->counter("scheduler.plateau_cancels")->Add();
    }
    if (options_.obs.tracer != nullptr) {
        options_.obs.tracer->RecordInstant("sched/plateau_cancel", "service",
                                           workload);
    }
}

void
BatchScheduler::NotifyYieldsChanged()
{
    std::lock_guard<std::mutex> lock(mutex_);
    dirty_ = true;
    if (!options_.plateau) {
        return;
    }
    // Remote yield can push a pending workload past its plateau
    // threshold without any local job completing; OnJobCompleted would
    // never see it.
    std::unordered_set<std::string> seen;
    for (const size_t index : pending_) {
        const std::string& workload = workloads_[index];
        if (cancelled_workloads_.count(workload) != 0 ||
            !seen.insert(workload).second) {
            continue;
        }
        CheckPlateauLocked(workload, corpus_->YieldFor(workload));
    }
}

size_t
BatchScheduler::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

}  // namespace chef::service
