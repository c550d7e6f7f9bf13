// Workload inputs of the serving benchmark.  Every input is a pure
// function of (workload, seed, request index): the same seed gives the
// same queries, byte for byte.
//
//   cold_wire    — one distinct catalog deployment per query on the
//                  paper's three protocols.  Every round of 13 requests
//                  visits all 13 built-in families in a seeded order, round
//                  r taking entry r of each (expanded at the catalog's
//                  default seed, so every seed serves the same deployment
//                  mix), and each deployment's sampling rate is jittered by
//                  a factor in [0.98, 1.02) drawn for that request alone,
//                  so every request is a new deployment — and a new cache
//                  key — even in families whose entries repeat.
//   sweep_inproc — one query_batch call per request: a 32-rung Lmax ladder
//                  (0.25x .. 2.5x the deployment's own bound, geometric)
//                  over a fresh catalog deployment drawn like cold_wire's,
//                  on the paper's three protocols plus B-MAC.
//
// A tier's set-up generates the kPregenerated queries that follow its first
// request; later requests are generated as they are sent, so the stream
// never runs out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "service/planner.h"

namespace servebench {

enum class Workload { kColdWire, kSweepInproc };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

inline constexpr int kLadderRungs = 32;
// Queries generated at set-up (the catalog expansion a deployment of this
// benchmark pays before serving): about one round's requests.
inline constexpr std::size_t kPregenerated = 2048;

class Inputs {
 public:
  // Pregenerates the requests from `first` on: cold_wire queries
  // first, first + 1, ...; sweep_inproc ladders first, first + 1, ...
  Inputs(Workload w, std::uint64_t seed, std::size_t first = 0);

  Workload workload() const { return workload_; }

  // cold_wire: the query of request k.
  edb::service::TuningQuery query(std::size_t k) const;
  // sweep_inproc: the ladder of call k.
  std::vector<edb::service::TuningQuery> ladder(std::size_t k) const;

  // Queries the tier answers during set-up, before timing:
  // paper_default() deployments the stream never asks about, which warm
  // the engine and leave the cache's answers unused.
  const std::vector<edb::service::TuningQuery>& warmup() const {
    return warmup_;
  }

 private:
  edb::core::Scenario deployment(std::size_t k) const;
  edb::service::TuningQuery cold_query(std::size_t k) const;
  std::vector<edb::service::TuningQuery> make_ladder(std::size_t k) const;

  Workload workload_;
  std::uint64_t seed_;
  std::size_t first_;
  // Pregenerated: cold queries, or sweep ladders concatenated.
  std::vector<edb::service::TuningQuery> ahead_;
  std::vector<edb::service::TuningQuery> warmup_;
  std::shared_ptr<const edb::catalog::Catalog> catalog_;
};

// Canonical whole-query keys over the queries a run sent: how many
// distinct questions it really asked.  Keys are kept as their 64-bit
// hashes, so the audit's memory does not grow with the keys' length.
class KeyAudit {
 public:
  void add(const edb::service::TuningQuery& q);
  std::size_t queries() const { return queries_; }
  std::size_t distinct() const { return seen_.size(); }
  double repeat_share() const {
    return queries_ ? 1.0 - static_cast<double>(distinct()) /
                                static_cast<double>(queries_)
                    : 0.0;
  }

 private:
  std::size_t queries_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace servebench
