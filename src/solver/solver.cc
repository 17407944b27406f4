#include "solver/solver.h"

#include <algorithm>
#include <chrono>

#include "cache/canonical.h"
#include "cache/shared_cache.h"
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
            histogram_->Record(elapsed);
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
        m_shared_cache_hits_ = registry.counter("solver.shared_cache_hits");
        m_model_reuse_hits_ = registry.counter("solver.model_reuse_hits");
        m_sat_calls_ = registry.counter("solver.sat_calls");
        m_incremental_sat_calls_ =
            registry.counter("solver.incremental_sat_calls");
        m_solve_latency_ = registry.histogram("solver.solve_seconds");
        m_sat_latency_ = registry.histogram("solver.sat_seconds");
    }
}

void
Solver::StoreLocal(uint64_t key, QueryResult result,
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
    if (recent_models_.size() > options_.model_reuse_window) {
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
            stats_.slices_solved += slices.size();
            // Whole-query shared prefetch: a sibling worker that solved
            // this exact query published it *whole* (below), so one
            // striped-lock lookup can answer every slice at once — and
            // on a sat hit the slice projections of the stored model
            // prime the local per-slice caches, so follow-up queries
            // that share a prefix slice stay entirely local.
            cache::CanonicalQuery whole;
            if (options_.shared_cache != nullptr) {
                whole.hash = cache::QueryHash(live);
                whole.sorted_assertions = cache::SortedByHash(live);
                cache::CachedResult shared_result;
                Assignment shared_model;
                if (options_.shared_cache->Lookup(whole, &shared_result,
                                                  &shared_model)) {
                    ++stats_.shared_whole_query_hits;
                    if (shared_result == cache::CachedResult::kUnsat) {
                        ++stats_.unsat_results;
                        return QueryResult::kUnsat;
                    }
                    Assignment whole_merged;
                    for (const IndependentSlice& slice : slices) {
                        Assignment slice_model;
                        for (const uint32_t var_id : slice.var_ids) {
                            // Get() zero-fills variables the stored
                            // model satisfied by absence, as in the
                            // per-slice path below.
                            const uint64_t value =
                                shared_model.Get(var_id);
                            slice_model.Set(var_id, value);
                            whole_merged.Set(var_id, value);
                        }
                        StoreLocal(cache::QueryHash(slice.assertions),
                                   QueryResult::kSat, slice_model,
                                   cache::SortedByHash(slice.assertions));
                        ++stats_.shared_slices_primed;
                    }
                    ++stats_.sat_results;
                    RememberModel(whole_merged);
                    if (model != nullptr) {
                        *model = std::move(whole_merged);
                    }
                    return QueryResult::kSat;
                }
            }
            Assignment merged;
            bool unknown = false;
            for (const IndependentSlice& slice : slices) {
                Assignment slice_model;
                const QueryResult result =
                    SolveLeaf(slice.assertions, &slice_model);
                if (result == QueryResult::kUnsat) {
                    if (options_.shared_cache != nullptr) {
                        // Any unsat slice proves the whole query unsat;
                        // publish it so siblings short-circuit the whole
                        // pipeline on one lookup.
                        options_.shared_cache->Insert(
                            whole, cache::CachedResult::kUnsat,
                            Assignment());
                    }
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
            if (options_.shared_cache != nullptr) {
                // Publish the *whole* sliced query (slices partition the
                // assertions, so the union of slice models is a model of
                // the conjunction): siblings prime all their slices from
                // this one entry instead of paying a shared lookup per
                // slice.
                options_.shared_cache->Insert(
                    whole, cache::CachedResult::kSat, merged);
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
        std::vector<uint32_t> var_ids;
        for (const ExprRef& assertion : live) {
            CollectVarIds(assertion, &var_ids);
        }
        for (const uint32_t var_id : var_ids) {
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

    // Built after the local-cache check so local hits (the steady-state
    // majority) never pay the copy; reused by the shared lookup and both
    // insert paths below.
    cache::CanonicalQuery canonical;
    if (options_.shared_cache != nullptr) {
        canonical.hash = key;
        canonical.sorted_assertions = sorted_live;
    }

    // Cross-worker shared cache: cheap (one striped lock) relative to
    // everything below, and a hit also primes the local layers.
    if (options_.shared_cache != nullptr) {
        cache::CachedResult shared_result;
        Assignment shared_model;
        if (options_.shared_cache->Lookup(canonical, &shared_result,
                                          &shared_model)) {
            ++stats_.shared_cache_hits;
            if (m_shared_cache_hits_ != nullptr) {
                m_shared_cache_hits_->Add();
            }
            const QueryResult result =
                shared_result == cache::CachedResult::kSat
                    ? QueryResult::kSat
                    : QueryResult::kUnsat;
            StoreLocal(key, result, shared_model, sorted_live);
            if (result == QueryResult::kSat) {
                RememberModel(shared_model);
                if (model != nullptr) {
                    *model = std::move(shared_model);
                }
            }
            return result;
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
                StoreLocal(key, QueryResult::kSat, candidate, sorted_live);
                return QueryResult::kSat;
            }
        }
    }

    // Sibling sessions' counterexamples: a model another worker published
    // often satisfies this worker's negation query outright.
    if (options_.shared_cache != nullptr) {
        Assignment candidate;
        if (options_.shared_cache->TryCounterexamples(live, &candidate)) {
            ++stats_.shared_model_reuse_hits;
            StoreLocal(key, QueryResult::kSat, candidate, sorted_live);
            RememberModel(candidate);
            if (model != nullptr) {
                *model = std::move(candidate);
            }
            return QueryResult::kSat;
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

    if (options_.enable_incremental_sat) {
        if (session_ == nullptr) {
            SatSolver::Options sat_options;
            sat_options.max_conflicts = options_.max_conflicts;
            sat_options.max_learned_clauses = options_.max_learned_clauses;
            session_ = std::make_unique<SatSession>(sat_options);
        }
        const size_t clauses_before = session_->cnf.num_clauses();
        const int vars_before = session_->cnf.num_vars();
        std::vector<Lit> assumptions;
        assumptions.reserve(live.size());
        for (const ExprRef& assertion : live) {
            assumptions.push_back(session_->blaster.BlastBool(assertion));
        }
        stats_.cnf_vars +=
            static_cast<uint64_t>(session_->cnf.num_vars() - vars_before);
        stats_.cnf_clauses += session_->cnf.num_clauses() - clauses_before;
        ++stats_.sat_calls;
        ++stats_.incremental_sat_calls;
        const size_t loaded_before = session_->sat.loaded_clauses();
        const uint64_t purged_before = session_->sat.stats().purged_clauses;
        status = session_->sat.SolveIncremental(session_->cnf, assumptions);
        stats_.clauses_loaded +=
            session_->sat.loaded_clauses() - loaded_before;
        stats_.learned_clauses_purged +=
            session_->sat.stats().purged_clauses - purged_before;
        if (status == SatStatus::kSat) {
            // The session's blaster has seen every query of the session;
            // extract only this query's variables (absent variables are
            // unconstrained and default to zero, as in the fresh path).
            std::vector<uint32_t> var_ids;
            for (const ExprRef& assertion : live) {
                CollectVarIds(assertion, &var_ids);
            }
            for (const uint32_t var_id : var_ids) {
                extracted.Set(
                    var_id,
                    session_->blaster.ModelValue(session_->sat, var_id));
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
        sat_options.max_conflicts = options_.max_conflicts;
        sat_options.max_learned_clauses = options_.max_learned_clauses;
        SatSolver sat(sat_options);
        ++stats_.sat_calls;
        status = sat.Solve(cnf);
        stats_.learned_clauses_purged += sat.stats().purged_clauses;
        if (status == SatStatus::kSat) {
            for (const auto& [var_id, info] : blaster.variables()) {
                extracted.Set(var_id, blaster.ModelValue(sat, var_id));
            }
        }
    }

    if (status == SatStatus::kUnknown) {
        return QueryResult::kUnknown;
    }
    if (status == SatStatus::kUnsat) {
        StoreLocal(key, QueryResult::kUnsat, Assignment(), sorted_live);
        if (options_.shared_cache != nullptr) {
            cache::CanonicalQuery canonical;
            canonical.hash = key;
            canonical.sorted_assertions = sorted_live;
            options_.shared_cache->Insert(
                canonical, cache::CachedResult::kUnsat, Assignment());
        }
        return QueryResult::kUnsat;
    }

    // Internal consistency: the extracted model must satisfy the query.
    CHEF_CHECK_MSG(cache::ModelSatisfies(live, extracted),
                   "bit-blasted model does not satisfy the query");

    StoreLocal(key, QueryResult::kSat, extracted, sorted_live);
    if (options_.shared_cache != nullptr) {
        cache::CanonicalQuery canonical;
        canonical.hash = key;
        canonical.sorted_assertions = sorted_live;
        options_.shared_cache->Insert(canonical, cache::CachedResult::kSat,
                                      extracted);
        options_.shared_cache->PublishModel(extracted);
    }
    RememberModel(extracted);
    if (model != nullptr) {
        *model = std::move(extracted);
    }
    return QueryResult::kSat;
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
