#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace chef::perfbench {

namespace {

struct Interval {
    uint64_t begin = 0;
    uint64_t end = 0;
};

bool
Named(const obs::TraceEvent& event, const char* name)
{
    return event.name == name;
}

}  // namespace

SpanSums
SumSpans(const std::vector<obs::TraceEvent>& events)
{
    SpanSums sums;
    // engine/select intervals per recording thread; spans of one thread
    // nest, so a solve lies inside a select iff it starts inside one.
    std::map<std::pair<uint32_t, uint32_t>, std::vector<Interval>> selects;
    for (const obs::TraceEvent& event : events) {
        const double seconds = static_cast<double>(event.dur_us) * 1e-6;
        if (Named(event, "engine/select")) {
            sums.select_s += seconds;
            selects[{event.pid, event.tid}].push_back(
                {event.ts_us, event.ts_us + event.dur_us});
        } else if (Named(event, "solver/sat")) {
            sums.sat_s += seconds;
        } else if (Named(event, "engine/run")) {
            sums.engine_run_ms.push_back(seconds * 1e3);
        }
    }
    for (auto& entry : selects) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const Interval& a, const Interval& b) {
                      return a.begin < b.begin;
                  });
    }
    for (const obs::TraceEvent& event : events) {
        if (!Named(event, "solver/solve")) {
            continue;
        }
        const auto it = selects.find({event.pid, event.tid});
        if (it == selects.end()) {
            continue;
        }
        const std::vector<Interval>& intervals = it->second;
        auto after = std::upper_bound(
            intervals.begin(), intervals.end(), event.ts_us,
            [](uint64_t ts, const Interval& interval) {
                return ts < interval.begin;
            });
        if (after == intervals.begin()) {
            continue;
        }
        const Interval& enclosing = *(after - 1);
        if (event.ts_us + event.dur_us <= enclosing.end) {
            sums.solve_in_select_s +=
                static_cast<double>(event.dur_us) * 1e-6;
        }
    }
    return sums;
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const size_t lower = static_cast<size_t>(std::floor(position));
    const size_t upper = std::min(lower + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(lower);
    return values[lower] + (values[upper] - values[lower]) * fraction;
}

}  // namespace chef::perfbench
