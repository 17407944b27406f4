#ifndef CHEF_SERVICE_REPORT_H_
#define CHEF_SERVICE_REPORT_H_

/// \file
/// JSON reporting for exploration-service batches.
///
/// Renders ServiceStats, per-job results, and the deduplicated corpus as
/// one JSON document with stable key order, so benches, examples, and
/// external tooling can consume a batch outcome without linking against
/// the service types.

#include <string>
#include <vector>

#include "service/corpus.h"
#include "service/job.h"
#include "support/json.h"

namespace chef::service {

/// Controls how much of the batch goes into the report.
struct ReportOptions {
    /// Cap on emitted corpus entries (0 = unlimited). The report records
    /// the full corpus size either way, and the `corpus_truncated` field
    /// counts the entries the cap dropped (0 when the array is the whole
    /// corpus) so consumers can tell a small corpus from a clipped one.
    size_t max_corpus_entries = 0;
    /// Include concrete input assignments per corpus entry.
    bool include_inputs = true;
};

/// Renders the batch outcome as a JSON document (pure ASCII, no
/// trailing newline). 64-bit identities (path fingerprints, seeds) are
/// emitted as "0x..." hex strings, not numbers, so double-based JSON
/// consumers cannot round them.
std::string RenderJsonReport(const ServiceStats& stats,
                             const std::vector<JobResult>& results,
                             const TestCorpus& corpus,
                             const ReportOptions& options = {});

/// Writes one ServiceStats object into an in-progress document — the
/// same key set RenderJsonReport emits under "stats". Exposed so the
/// shard layer's wire format and merged coordinator report serialize
/// per-shard stats with the identical schema.
void WriteServiceStats(support::JsonWriter& json, const ServiceStats& stats);

/// Writes one per-job result object — the element schema of
/// RenderJsonReport's "jobs" array. Exposed for the shard wire format.
void WriteJobResult(support::JsonWriter& json, const JobResult& result);

/// Writes the report to a file; returns false on I/O error.
bool WriteJsonReportFile(const std::string& path,
                         const ServiceStats& stats,
                         const std::vector<JobResult>& results,
                         const TestCorpus& corpus,
                         const ReportOptions& options = {});

/// The escaping/writing machinery lives in support/json.h now (shared
/// with the shard wire format); this keeps existing call sites working.
using support::JsonEscape;

}  // namespace chef::service

#endif  // CHEF_SERVICE_REPORT_H_
