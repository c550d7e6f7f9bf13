#include "service/core.h"

#include <memory>
#include <unordered_map>
#include <utility>

#include "mac/registry.h"
#include "obs/obs.h"
#include "util/fault.h"

namespace edb::service {
namespace {

ResultQuality worse(ResultQuality a, ResultQuality b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// One distinct cache miss: a (scenario, protocol, options) question plus
// every (query, protocol-slot) pair waiting for its answer.
struct Miss {
  const QueryKey* key = nullptr;  // owned by the batch's coalescing map
  std::string protocol;
  std::unique_ptr<mac::AnalyticMacModel> model;  // owns jobs[i].model
  std::vector<std::pair<std::size_t, std::size_t>> sinks;
};

// A protocol slot from one solve: the outcome, or the error's code and
// message exactly as core::run_sweep records a dead cell.
ProtocolOutcome outcome_of(const std::string& protocol,
                           Expected<core::BargainingOutcome> solved) {
  ProtocolOutcome po;
  po.protocol = protocol;
  if (solved.ok()) {
    po.outcome = std::move(solved).take();
  } else {
    po.infeasible_reason = solved.error().to_string();
    po.infeasible_code = solved.error().code;
  }
  return po;
}

int pick_recommended(const TuningResult& result, double e_budget) {
  int best = -1;
  double best_headroom = 0;
  for (std::size_t i = 0; i < result.per_protocol.size(); ++i) {
    const auto& p = result.per_protocol[i];
    if (!p.feasible()) continue;
    const double headroom = e_budget - p.outcome->nbs.energy;
    if (best < 0 || headroom > best_headroom) {
      best = static_cast<int>(i);
      best_headroom = headroom;
    }
  }
  return best;
}

}  // namespace

ServiceCore::ServiceCore(const CoreOptions& opts)
    : cache_(opts.cache_capacity, opts.cache_shards), engine_(opts.engine) {
  // EDB_FAULT_PLAN takes effect for any process that serves queries:
  // chaos runs configure injection by environment alone (util/fault.h).
  // No-op when the variable is unset.
  fault::install_from_env();
}

std::vector<Expected<TuningResult>> ServiceCore::serve(
    const std::vector<TuningQuery>& queries) {
  EDB_SPAN("service.plan.batch");
  ++stats_.batches;
  stats_.queries += queries.size();

  std::vector<Expected<TuningResult>> out(
      queries.size(),
      Expected<TuningResult>(make_error(ErrorCode::kInternal, "not planned")));
  std::vector<TuningResult> partial(queries.size());
  std::vector<bool> failed(queries.size(), false);

  // Stage 1+2: resolve keys, drain the cache, coalesce in-batch repeats.
  std::vector<Miss> misses;
  std::vector<core::SolveJob> jobs;  // jobs[i] solves misses[i]
  std::unordered_map<QueryKey, std::size_t, QueryKeyHash> miss_index;
  {
    EDB_SPAN("service.plan.resolve");
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const TuningQuery& q = queries[qi];
      auto valid = q.scenario.validate();
      if (!valid.ok()) {
        out[qi] = valid.error();
        failed[qi] = true;
        continue;
      }
      if (!(q.options.alpha > 0.0 && q.options.alpha < 1.0)) {
        // Reject here rather than letting the engine's assertion abort the
        // dispatcher: a malformed query is the caller's error, not ours.
        out[qi] = make_error(ErrorCode::kInvalidArgument,
                             "bargaining power alpha must lie in (0, 1)");
        failed[qi] = true;
        continue;
      }
      auto protocols = canonical_protocol_set(q.protocols);
      if (!protocols.ok()) {
        out[qi] = protocols.error();
        failed[qi] = true;
        continue;
      }
      const KeyPrefix prefix(q.scenario, q.options);
      partial[qi].key = prefix.query_key(*protocols);
      // "service.dispatch" injection site: request processing itself,
      // keyed on the whole-query canonical hash (a stable identity, so
      // the same query faults identically at any thread count or arrival
      // order).  Up to fault::kMaxAttempts deterministic retries absorb
      // short blips; on exhaustion the query fails with kUnavailable.
      std::uint32_t attempt = 0;
      while (attempt < fault::kMaxAttempts &&
             fault::lost("service.dispatch", partial[qi].key.hash, attempt)) {
        ++attempt;
      }
      if (attempt == fault::kMaxAttempts) {
        out[qi] = make_error(ErrorCode::kUnavailable,
                             "injected fault at service.dispatch");
        count_service_error(ErrorCode::kUnavailable);
        failed[qi] = true;
        continue;
      }
      partial[qi].per_protocol.resize(protocols->size());
      for (std::size_t pi = 0; pi < protocols->size(); ++pi) {
        const std::string& name = (*protocols)[pi];
        QueryKey key = prefix.protocol_key(name);
        ++stats_.protocol_queries;
        // "cache.lookup" injection site: a fired fault suppresses this
        // attempt's lookup (the entry may exist, but the attempt cannot
        // see it), so the slot falls through to the miss path — where the
        // degradation ladder's stale re-read may still recover it.
        auto cached = fault::lost("cache.lookup", key.hash)
                          ? std::nullopt
                          : cache_.get(key);
        if (cached) {
          ++stats_.cache_hits;
          partial[qi].per_protocol[pi] = std::move(*cached);
          continue;
        }
        const auto [it, fresh] =
            miss_index.try_emplace(std::move(key), misses.size());
        if (!fresh) {
          ++stats_.coalesced;
          misses[it->second].sinks.emplace_back(qi, pi);
          continue;
        }
        // The protocol name came out of the registry, so this cannot fail.
        auto model = mac::make_model(name, q.scenario.context).take();
        jobs.push_back(core::SolveJob{
            model.get(), q.scenario.requirements, q.options.alpha,
            core::SolveControl{&cancel_, q.options.eval_budget}});
        misses.push_back(Miss{&it->first, name, std::move(model), {{qi, pi}}});
      }
    }
  }

  // Stage 3: each distinct miss is one cold solve of its own model; the
  // engine fans the batch.
  if (!misses.empty()) {
    auto solved = [&] {
      EDB_SPAN("service.plan.solve");
      return engine_.solve_batch(jobs);
    }();
    stats_.sweep_jobs += jobs.size();
    stats_.solved += jobs.size();

    // Stage 4: install and scatter, through the resilience machinery
    // (DESIGN.md §10).  Per distinct miss:
    //
    //   1. "planner.solve" injection (keyed on the slot's canonical key
    //      hash): a fired fault discards this attempt's answer.
    //   2. Transient failures (injected, kDeadlineExceeded, kCancelled)
    //      walk the degradation ladder — stale cache re-read first (no
    //      injection: the degraded path IS the recovery), then a
    //      coarse-grid quick answer.
    //   3. Only full-quality outcomes install into the cache.  Every
    //      transient code walked the ladder, so no transient negative
    //      entry and no degraded answer is cached (both describe this
    //      attempt, not the question).
    EDB_SPAN("service.plan.install");
    for (std::size_t mi = 0; mi < misses.size(); ++mi) {
      const QueryKey& key = *misses[mi].key;
      ProtocolOutcome po =
          outcome_of(misses[mi].protocol, std::move(solved[mi]));

      if (fault::lost("planner.solve", key.hash)) {
        po = ProtocolOutcome{misses[mi].protocol, std::nullopt,
                             "injected fault at planner.solve",
                             ErrorCode::kUnavailable};
      }

      ResultQuality quality = ResultQuality::kFull;
      if (!po.feasible() && is_transient(po.infeasible_code)) {
        ++stats_.transient_failures;
        count_service_error(po.infeasible_code);
        if (auto stale = cache_.get(key)) {
          po = std::move(*stale);
          quality = ResultQuality::kStale;
          ++stats_.degraded_stale;
        } else {
          const core::SolveJob& job = jobs[mi];
          core::EnergyDelayGame game(*job.model, job.req);
          game.set_solver_mode(core::SolverMode::kCoarse);
          // Cancellation still binds (shutdown must win) but no eval
          // budget: the coarse pipeline is bounded by construction —
          // it IS the deadline fallback.
          game.set_control(core::SolveControl{&cancel_, 0});
          po = outcome_of(misses[mi].protocol, game.solve_weighted(job.alpha));
          quality = ResultQuality::kCoarse;
          ++stats_.degraded_coarse;
        }
        count_degraded(quality);
      }

      if (quality == ResultQuality::kFull) cache_.put(key, po);
      for (const auto& [qi, pi] : misses[mi].sinks) {
        partial[qi].per_protocol[pi] = po;
        partial[qi].quality = worse(partial[qi].quality, quality);
      }
    }
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (failed[qi]) continue;
    partial[qi].recommended =
        pick_recommended(partial[qi], queries[qi].scenario.requirements.e_budget);
    out[qi] = std::move(partial[qi]);
  }
  return out;
}

}  // namespace edb::service
