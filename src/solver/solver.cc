#include "solver/solver.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>

#include "cache/canonical.h"
#include "obs/attribution.h"
#include "solver/bitblast.h"
#include "solver/independence.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace chef::solver {

namespace {

/// Accumulates the enclosing scope's wall time into a stats field on every
/// exit path (Solve returns from many places), and optionally mirrors the
/// sample into a latency histogram and the attribution profiler (which
/// charges the same duration to the thread's ambient location, so the
/// attribution table's solver totals agree with solve_seconds).
class ScopedTimer
{
  public:
    explicit ScopedTimer(double* total, obs::Histogram* histogram = nullptr,
                         obs::AttributionProfiler* attribution = nullptr)
        : total_(total), histogram_(histogram), attribution_(attribution)
    {
    }
    ~ScopedTimer()
    {
        const auto elapsed_nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const double elapsed =
            static_cast<double>(elapsed_nanos) / 1e9;
        *total_ += elapsed;
        if (histogram_ != nullptr) {
            // Whole nanoseconds, so the histogram's sum_nanos is the
            // exact total the stats field accumulates in seconds.
            histogram_->RecordNanos(static_cast<uint64_t>(elapsed_nanos));
        }
        if (attribution_ != nullptr) {
            attribution_->ChargeSolver(
                static_cast<uint64_t>(elapsed_nanos));
        }
    }

  private:
    double* total_;
    obs::Histogram* histogram_;
    obs::AttributionProfiler* attribution_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

}  // namespace

Solver::Solver(Options options) : options_(options)
{
    if (options_.obs.metrics != nullptr) {
        obs::MetricsRegistry& registry = *options_.obs.metrics;
        m_queries_ = registry.counter("solver.queries");
        m_cache_hits_ = registry.counter("solver.cache_hits");
        m_model_reuse_hits_ = registry.counter("solver.model_reuse_hits");
        m_sat_calls_ = registry.counter("solver.sat_calls");
        m_incremental_sat_calls_ =
            registry.counter("solver.incremental_sat_calls");
        m_sliced_queries_ = registry.counter("solver.sliced_queries");
        m_clauses_loaded_ = registry.counter("solver.clauses_loaded");
        m_sat_propagations_ = registry.counter("solver.sat_propagations");
        m_solve_latency_ = registry.histogram("solver.solve_seconds");
        m_sat_latency_ = registry.histogram("solver.sat_seconds");
    }
}

void
Solver::StoreInCache(uint64_t key, QueryResult result,
                     const Assignment& model,
                     const std::vector<ExprRef>& sorted_assertions)
{
    if (!options_.enable_query_cache) {
        return;
    }
    auto [it, inserted] = cache_.try_emplace(key);
    CacheEntry& entry = it->second;
    if (inserted) {
        lru_.push_front(key);
        entry.lru_it = lru_.begin();
    } else {
        // Overwriting a colliding (or re-stored) entry: retire its bytes
        // first and refresh its LRU position.
        stats_.cache_bytes -= cache::QueryEntryBytes(
            entry.key_assertions.size(), entry.model.size());
        lru_.splice(lru_.begin(), lru_, entry.lru_it);
    }
    entry.result = result;
    entry.model = result == QueryResult::kSat ? model : Assignment();
    entry.key_assertions = sorted_assertions;
    stats_.cache_bytes += cache::QueryEntryBytes(
        sorted_assertions.size(), entry.model.size());

    // Enforce the byte budget, least-recently-used first. The entry just
    // stored sits at the LRU front, so it survives unless it alone
    // exceeds the budget.
    while (options_.max_cache_bytes != 0 &&
           stats_.cache_bytes > options_.max_cache_bytes &&
           !lru_.empty()) {
        const uint64_t victim_key = lru_.back();
        auto victim = cache_.find(victim_key);
        CHEF_CHECK(victim != cache_.end());
        stats_.cache_bytes -= cache::QueryEntryBytes(
            victim->second.key_assertions.size(),
            victim->second.model.size());
        lru_.pop_back();
        cache_.erase(victim);
        ++stats_.cache_evictions;
    }
}

void
Solver::RememberModel(const Assignment& model)
{
    if (!options_.enable_model_reuse) {
        return;
    }
    recent_models_.push_front(model);
    if (recent_models_.size() > kModelReuseWindow) {
        recent_models_.pop_back();
    }
}

QueryResult
Solver::Solve(const std::vector<ExprRef>& assertions, Assignment* model)
{
    const ScopedTimer timer(&stats_.solve_seconds, m_solve_latency_,
                            options_.obs.attribution);
    CHEF_OBS_SPAN(span, options_.obs.tracer, "solver/solve", "solver");
    ++stats_.queries;
    if (m_queries_ != nullptr) {
        m_queries_->Add();
    }

    // Constant-folded outcomes never reach the backend.
    std::vector<ExprRef> live;
    live.reserve(assertions.size());
    for (const ExprRef& assertion : assertions) {
        CHEF_CHECK(assertion->width() == 1);
        if (assertion->IsTrue()) {
            continue;
        }
        if (assertion->IsFalse()) {
            ++stats_.unsat_results;
            return QueryResult::kUnsat;
        }
        live.push_back(assertion);
    }
    if (live.empty()) {
        if (model != nullptr) {
            *model = Assignment();
        }
        ++stats_.sat_results;
        return QueryResult::kSat;
    }

    // Syntactic contradiction fast path: concolic negation queries are
    // frequently of the form {..., c, ..., !c} where the flipped branch
    // condition already appears in the prefix (input-dependent loops that
    // re-test one condition). Detect the pair structurally — without
    // allocating the negated node — before paying for anything else.
    {
        const ExprRef& last = live.back();
        for (size_t i = 0; i + 1 < live.size(); ++i) {
            if (IsSyntacticNegation(live[i], last)) {
                ++stats_.unsat_results;
                return QueryResult::kUnsat;
            }
        }
    }

    // Independence slicing: variable-disjoint slices are decided
    // separately (the conjunction is sat iff each slice is, and the union
    // of slice models is a model of the whole query). Prefix slices hit
    // their per-slice cache entries; only the slice containing the
    // freshly negated branch condition does real work.
    if (options_.enable_independence_slicing) {
        std::vector<IndependentSlice> slices = PartitionIndependent(live);
        if (slices.size() > 1) {
            CHEF_OBS_SPAN(slice_span, options_.obs.tracer, "solver/slices",
                          "solver");
            slice_span.set_detail(std::to_string(slices.size()) + " slices");
            ++stats_.sliced_queries;
            if (m_sliced_queries_ != nullptr) {
                m_sliced_queries_->Add();
            }
            stats_.slices_solved += slices.size();
            Assignment merged;
            bool unknown = false;
            for (const IndependentSlice& slice : slices) {
                Assignment slice_model;
                const QueryResult result =
                    SolveLeaf(slice.assertions, &slice_model);
                if (result == QueryResult::kUnsat) {
                    ++stats_.unsat_results;
                    return QueryResult::kUnsat;
                }
                if (result == QueryResult::kUnknown) {
                    // Keep going: a later unsat slice still decides the
                    // whole query, which a budget-starved monolithic
                    // solve could not.
                    unknown = true;
                    continue;
                }
                // Merge only the slice's own variables: a slice answered
                // from the cache or model-reuse window can carry a full
                // model whose stray entries would clobber other slices'
                // assignments. Get() turns variables such a model
                // satisfied *by absence* (absent evaluates as zero) into
                // explicit zeros, so the caller never has to guess — the
                // engine fills absent inputs with guest defaults, which
                // are not zero.
                for (const uint32_t var_id : slice.var_ids) {
                    merged.Set(var_id, slice_model.Get(var_id));
                }
            }
            if (unknown) {
                ++stats_.unknown_results;
                return QueryResult::kUnknown;
            }
            ++stats_.sat_results;
            RememberModel(merged);
            if (model != nullptr) {
                *model = std::move(merged);
            }
            return QueryResult::kSat;
        }
    }

    const QueryResult result = SolveLeaf(live, model);
    if (result == QueryResult::kSat && model != nullptr) {
        // A model served by the reuse layers can satisfy an assertion by
        // *absence* (absent variables evaluate as zero). Make those zeros
        // explicit so every constrained variable is assigned — callers
        // (the engine) substitute their own defaults for absent inputs.
        var_ids_.clear();
        CollectVarIds(live, &var_ids_);
        for (const uint32_t var_id : var_ids_) {
            if (!model->Has(var_id)) {
                model->Set(var_id, 0);
            }
        }
    }
    switch (result) {
      case QueryResult::kSat: ++stats_.sat_results; break;
      case QueryResult::kUnsat: ++stats_.unsat_results; break;
      case QueryResult::kUnknown: ++stats_.unknown_results; break;
    }
    return result;
}

QueryResult
Solver::SolveLeaf(const std::vector<ExprRef>& live, Assignment* model)
{
    CHEF_OBS_SPAN(span, options_.obs.tracer, "solver/leaf", "solver");
    const uint64_t key = cache::QueryHash(live);
    const std::vector<ExprRef> sorted_live = cache::SortedByHash(live);
    if (options_.enable_query_cache) {
        auto it = cache_.find(key);
        if (it != cache_.end() &&
            cache::SameAssertions(it->second.key_assertions, sorted_live)) {
            ++stats_.cache_hits;
            if (m_cache_hits_ != nullptr) {
                m_cache_hits_->Add();
            }
            lru_.splice(lru_.begin(), lru_, it->second.lru_it);
            if (it->second.result == QueryResult::kSat && model != nullptr) {
                *model = it->second.model;
            }
            return it->second.result;
        }
    }

    if (options_.enable_model_reuse) {
        for (const Assignment& candidate : recent_models_) {
            if (cache::ModelSatisfies(live, candidate)) {
                ++stats_.model_reuse_hits;
                if (m_model_reuse_hits_ != nullptr) {
                    m_model_reuse_hits_->Add();
                }
                if (model != nullptr) {
                    *model = candidate;
                }
                StoreInCache(key, QueryResult::kSat, candidate, sorted_live);
                return QueryResult::kSat;
            }
        }
    }

    return SolveViaSat(live, key, sorted_live, model);
}

QueryResult
Solver::SolveViaSat(const std::vector<ExprRef>& live, uint64_t key,
                    const std::vector<ExprRef>& sorted_live,
                    Assignment* model)
{
    // stats_.solve_seconds already covers this scope (SolveViaSat runs
    // inside Solve's timer); the discard double only feeds the histogram.
    double sat_seconds_discard = 0.0;
    const ScopedTimer sat_timer(&sat_seconds_discard, m_sat_latency_);
    CHEF_OBS_SPAN(span, options_.obs.tracer, "solver/sat", "solver");
    span.set_detail(options_.enable_incremental_sat ? "incremental"
                                                    : "fresh");
    if (m_sat_calls_ != nullptr) {
        m_sat_calls_->Add();
        if (options_.enable_incremental_sat) {
            m_incremental_sat_calls_->Add();
        }
    }

    SatStatus status;
    Assignment extracted;
    const uint64_t clauses_loaded_before = stats_.clauses_loaded;
    const uint64_t propagations_before = stats_.sat_propagations;

    if (options_.enable_incremental_sat) {
        if (session_ == nullptr) {
            SatSolver::Options sat_options;
            sat_options.max_conflicts = kMaxConflicts;
            sat_options.max_learned_clauses = options_.max_learned_clauses;
            session_ = std::make_unique<SatSession>(sat_options);
        }
        SatSession& session = *session_;
        const size_t clauses_before = session.cnf.num_clauses();
        const int vars_before = session.cnf.num_vars();
        std::vector<Lit> assumptions;
        assumptions.reserve(live.size());
        for (const ExprRef& assertion : live) {
            assumptions.push_back(session.blaster.BlastBool(assertion));
        }
        stats_.cnf_vars +=
            static_cast<uint64_t>(session.cnf.num_vars() - vars_before);
        stats_.cnf_clauses += session.cnf.num_clauses() - clauses_before;
        ++stats_.sat_calls;
        ++stats_.incremental_sat_calls;
        bool rebuilt = false;
        stats_.clauses_loaded += session.LoadCone(&assumptions, &rebuilt);
        if (rebuilt) {
            ++stats_.sat_rebuilds;
        }
        const SatStats sat_before = session.sat.stats();
        status = session.sat.SolveAssuming(assumptions);
        stats_.learned_clauses_purged +=
            session.sat.stats().purged_clauses - sat_before.purged_clauses;
        stats_.sat_propagations +=
            session.sat.stats().propagations - sat_before.propagations;
        if (status == SatStatus::kSat) {
            // The session's blaster has seen every query of the session;
            // extract only this query's variables (absent variables are
            // unconstrained and default to zero, as in the fresh path).
            var_ids_.clear();
            CollectVarIds(live, &var_ids_);
            for (const uint32_t var_id : var_ids_) {
                extracted.Set(var_id, session.ModelValue(var_id));
            }
        }
    } else {
        CnfFormula cnf;
        BitBlaster blaster(&cnf);
        for (const ExprRef& assertion : live) {
            blaster.AssertTrue(assertion);
        }
        stats_.cnf_vars += cnf.num_vars();
        stats_.cnf_clauses += cnf.num_clauses();
        stats_.clauses_loaded += cnf.num_clauses();

        SatSolver::Options sat_options;
        sat_options.max_conflicts = kMaxConflicts;
        sat_options.max_learned_clauses = options_.max_learned_clauses;
        SatSolver sat(sat_options);
        ++stats_.sat_calls;
        status = sat.Solve(cnf);
        stats_.learned_clauses_purged += sat.stats().purged_clauses;
        stats_.sat_propagations += sat.stats().propagations;
        if (status == SatStatus::kSat) {
            for (const auto& [var_id, info] : blaster.variables()) {
                extracted.Set(var_id, blaster.ModelValue(sat, var_id));
            }
        }
    }
    if (m_clauses_loaded_ != nullptr) {
        m_clauses_loaded_->Add(stats_.clauses_loaded - clauses_loaded_before);
        m_sat_propagations_->Add(stats_.sat_propagations -
                                 propagations_before);
    }

    if (status == SatStatus::kUnknown) {
        return QueryResult::kUnknown;
    }
    if (status == SatStatus::kUnsat) {
        StoreInCache(key, QueryResult::kUnsat, Assignment(), sorted_live);
        return QueryResult::kUnsat;
    }

    // Internal consistency: the extracted model must satisfy the query.
    CHEF_CHECK_MSG(cache::ModelSatisfies(live, extracted),
                   "bit-blasted model does not satisfy the query");

    StoreInCache(key, QueryResult::kSat, extracted, sorted_live);
    RememberModel(extracted);
    if (model != nullptr) {
        *model = std::move(extracted);
    }
    return QueryResult::kSat;
}

size_t
Solver::SatSession::LoadCone(std::vector<Lit>* assumptions, bool* rebuilt)
{
    const size_t num_vars = static_cast<size_t>(cnf.num_vars());
    if (dense.size() <= num_vars) {
        dense.resize(num_vars + 1, 0);
        stamp.resize(num_vars + 1, 0);
    }
    if (++epoch == 0) {  // Wrapped: no stale stamp may equal the epoch.
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
    }

    // The cone: every variable whose definition the assumptions reach.
    // A definition names only older variables, so the walk ends; stamps
    // make it cost O(cone), never O(session), and stopping at loaded
    // variables makes it cost the missing part and its frontier unless
    // a rebuild may be due.
    cone.clear();
    stack.clear();
    const auto push_definition = [this](int var) {
        for (size_t i = cnf.definition_begin(var),
                    end = cnf.definition_end(var);
             i < end; ++i) {
            for (const Lit lit : cnf.clause(i)) {
                if (stamp[std::abs(lit)] != epoch) {
                    stack.push_back(std::abs(lit));
                }
            }
        }
    };
    const auto walk = [this, &push_definition](bool enter_loaded) {
        while (!stack.empty()) {
            const int var = stack.back();
            stack.pop_back();
            if (stamp[var] == epoch) {
                continue;
            }
            stamp[var] = epoch;
            cone.push_back(var);
            if (enter_loaded || dense[var] == 0) {
                push_definition(var);
            }
        }
    };
    // First walk only the missing variables. The loaded set is closed
    // under definitions, so every missing cone variable is reached
    // through missing ones: the walk finds all M of them, plus the F
    // loaded variables on its frontier, and the cone holds at least
    // M + F variables. When even that lower bound keeps the loaded set
    // within the limit, no rebuild is due and the rest of the cone (all
    // loaded) need not be walked.
    for (const Lit lit : *assumptions) {
        stack.push_back(std::abs(lit));
    }
    walk(false);
    size_t missing = 0;
    for (const int var : cone) {
        missing += dense[var] == 0 ? 1 : 0;
    }
    if (loaded_vars.size() + missing > kMaxLoadedPerCone * cone.size()) {
        // The bound is not enough: finish the walk from the frontier to
        // size the whole cone.
        for (size_t i = 0, frontier_end = cone.size(); i < frontier_end;
             ++i) {
            if (dense[cone[i]] != 0) {
                push_definition(cone[i]);
            }
        }
        walk(true);
    }

    *rebuilt = false;
    if (loaded_vars.size() + missing > kMaxLoadedPerCone * cone.size()) {
        for (const int var : loaded_vars) {
            dense[var] = 0;
        }
        loaded_vars.clear();
        sat.Reset();
        *rebuilt = true;
    }

    // Load the missing definitions in session order, so the instance
    // receives them in the order the blaster built them. Numbering every
    // missing variable first lets each clause map its inputs.
    const size_t first_new = loaded_vars.size();
    for (const int var : cone) {
        if (dense[var] == 0) {
            loaded_vars.push_back(var);
        }
    }
    std::sort(loaded_vars.begin() + static_cast<std::ptrdiff_t>(first_new),
              loaded_vars.end());
    for (size_t i = first_new; i < loaded_vars.size(); ++i) {
        dense[loaded_vars[i]] = static_cast<int>(i + 1);
    }
    const auto to_loaded = [this](Lit lit) {
        return lit > 0 ? dense[lit] : -dense[-lit];
    };
    // A session clause is normalized (sorted by variable, no repeated
    // variable), and the dense map is one-to-one, so the renumbered
    // clause needs no normalizing beyond a sort, and only when the map
    // put an older loaded variable after a newer one.
    const auto by_variable = [](Lit a, Lit b) {
        return std::abs(a) < std::abs(b);
    };
    sat.BeginIncrement(static_cast<int>(loaded_vars.size()));
    size_t clauses_loaded = 0;
    for (size_t i = first_new; i < loaded_vars.size(); ++i) {
        const int var = loaded_vars[i];
        for (size_t c = cnf.definition_begin(var),
                    end = cnf.definition_end(var);
             c < end; ++c) {
            clause.clear();
            for (const Lit lit : cnf.clause(c)) {
                clause.push_back(to_loaded(lit));
            }
            if (!std::is_sorted(clause.begin(), clause.end(), by_variable)) {
                std::sort(clause.begin(), clause.end(), by_variable);
            }
            sat.LoadClause(clause.data(), clause.size());
            ++clauses_loaded;
        }
    }
    for (Lit& lit : *assumptions) {
        lit = to_loaded(lit);
    }
    return clauses_loaded;
}

uint64_t
Solver::SatSession::ModelValue(uint32_t var_id) const
{
    const auto it = blaster.variables().find(var_id);
    CHEF_CHECK(it != blaster.variables().end());
    uint64_t value = 0;
    const std::vector<Lit>& bits = it->second.bits;
    for (size_t i = 0; i < bits.size(); ++i) {
        const int var = dense[std::abs(bits[i])];
        if (var != 0 && sat.ModelValue(var) == (bits[i] > 0)) {
            value |= 1ull << i;
        }
    }
    return value;
}

bool
Solver::UpperBound(const std::vector<ExprRef>& assertions,
                   const ExprRef& value, uint64_t* bound)
{
    Assignment model;
    if (Solve(assertions, &model) != QueryResult::kSat) {
        return false;
    }
    uint64_t low = EvalConcrete(value, model);   // Achievable.
    uint64_t high = WidthMask(value->width());   // Inclusive upper limit.
    // Binary search for the largest achievable value: invariant is that
    // `low` is achievable and everything above `high` is not.
    while (low < high) {
        const uint64_t mid = low + (high - low + 1) / 2;
        std::vector<ExprRef> augmented = assertions;
        augmented.push_back(
            MakeUge(value, MakeConst(mid, value->width())));
        Assignment probe;
        if (Solve(augmented, &probe) == QueryResult::kSat) {
            low = EvalConcrete(value, probe);
            CHEF_CHECK(low >= mid);
        } else {
            high = mid - 1;
        }
    }
    *bound = low;
    return true;
}

}  // namespace chef::solver
