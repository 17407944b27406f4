#ifndef CHEF_SHARD_WORKER_H_
#define CHEF_SHARD_WORKER_H_

/// \file
/// The shard worker: one ExplorationService served over a Transport.
///
/// A worker announces itself (hello), waits for its partition of a batch
/// (run), and explores it. Every gossip interval it sends the
/// coordinator one progress frame: the jobs completed since the last
/// frame, its fresh local corpus entries in full, and its yield
/// snapshot. Incoming gossip from sibling shards merges into the local
/// corpus — pre-seeding fingerprints so a path another shard already
/// covered dedups on discovery, and feeding remote yield into the batch
/// scheduler so priorities (and plateau cancellation) act on the
/// *cluster's* view of where coverage is climbing, not just the local
/// one. When the batch drains the worker flushes one last progress
/// frame, sends a result frame (final telemetry and trace), and waits
/// for more work or shutdown.

#include <string>

#include "shard/transport.h"
#include "shard/wire.h"

namespace chef::shard {

class ShardWorker
{
  public:
    struct Options {
        /// Interval between outgoing progress frames, which the
        /// coordinator forwards as gossip. Gossip is best-effort
        /// acceleration — a longer interval only delays dedup and the
        /// coordinator's view, never correctness (the coordinator merge
        /// dedups regardless). The default trades ~50 small
        /// messages/second for dedup that can keep up with
        /// millisecond-scale jobs.
        double gossip_interval_seconds = 0.02;
    };

    ShardWorker(Options options, Transport* transport);

    /// Serves the protocol until shutdown or transport close. Returns
    /// true on clean shutdown, false when the coordinator vanished or a
    /// protocol error occurred (the error is also sent to the peer when
    /// possible). A coordinator that vanishes mid-batch cancels the
    /// in-flight exploration via the service stop source and makes
    /// Serve() return false promptly — finishing doomed work would only
    /// burn cores nobody collects from.
    bool Serve();

  private:
    /// Runs one batch partition. Returns false when the coordinator
    /// vanished mid-run (transport closed or a send failed).
    bool HandleRun(const RunRequest& request);

    Options options_;
    Transport* transport_;
};

}  // namespace chef::shard

#endif  // CHEF_SHARD_WORKER_H_
