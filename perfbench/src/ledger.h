#ifndef CHEF_PERFBENCH_LEDGER_H_
#define CHEF_PERFBENCH_LEDGER_H_

/// \file
/// Span arithmetic for the traced run: sums of the phase spans the
/// system already records (engine/select, solver/solve, solver/sat,
/// engine/run) and the self time of state selection, i.e.
/// engine/select minus the solver/solve spans nested inside it on the
/// same thread.

#include <vector>

#include "obs/trace.h"

namespace chef::perfbench {

struct SpanSums {
    double select_s = 0.0;
    /// solver/solve time nested inside engine/select.
    double solve_in_select_s = 0.0;
    double sat_s = 0.0;
    /// engine/run durations (one concolic run each), milliseconds.
    std::vector<double> engine_run_ms;

    double select_self_s() const { return select_s - solve_in_select_s; }
};

SpanSums SumSpans(const std::vector<obs::TraceEvent>& events);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

}  // namespace chef::perfbench

#endif  // CHEF_PERFBENCH_LEDGER_H_
