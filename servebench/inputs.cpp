#include "inputs.h"

#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "service/key.h"
#include "util/rng.h"

namespace servebench {
namespace {

using edb::Rng;
using edb::core::Scenario;
using edb::service::TuningQuery;

// Independent per-workload streams off one user seed.
constexpr std::uint64_t kColdSalt = 0x636f6c64ULL;
constexpr std::uint64_t kSweepSalt = 0x7377656570ULL;
constexpr std::uint64_t kJitterSalt = 0x6a6974ULL;

const std::vector<std::string> kColdProtocols = {"X-MAC", "DMAC", "LMAC"};
const std::vector<std::string> kSweepProtocols = {"X-MAC", "DMAC", "LMAC",
                                                  "B-MAC"};

// A private stream per (seed, salt, index).
Rng stream_for(std::uint64_t seed, std::uint64_t salt, std::uint64_t index) {
  return Rng(edb::splitmix64(seed ^ salt) ^
             edb::splitmix64(index + 0x9e3779b97f4a7c15ULL));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "cold_wire") return Workload::kColdWire;
  if (name == "sweep_inproc") return Workload::kSweepInproc;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdWire:
      return "cold_wire";
    case Workload::kSweepInproc:
      return "sweep_inproc";
  }
  return "?";
}

Inputs::Inputs(Workload w, std::uint64_t seed, std::size_t first)
    : workload_(w),
      seed_(seed),
      first_(first),
      catalog_(std::make_shared<const edb::catalog::Catalog>(
          edb::catalog::Catalog::builtin())) {
  const bool sweep = w == Workload::kSweepInproc;
  // sweep_inproc: one ladder, as the timed calls send them.
  const int warm = sweep ? kLadderRungs : 8;
  for (int r = 0; r < warm; ++r) {
    TuningQuery q;
    q.scenario = Scenario::paper_default();
    q.scenario.requirements.l_max = sweep ? 0.5 + 0.25 * r : 1.25 + 0.5 * r;
    q.protocols = sweep ? kSweepProtocols : kColdProtocols;
    warmup_.push_back(std::move(q));
  }
  ahead_.reserve(kPregenerated);
  for (std::size_t k = first; ahead_.size() < kPregenerated; ++k) {
    if (sweep) {
      for (auto& q : make_ladder(k)) ahead_.push_back(std::move(q));
    } else {
      ahead_.push_back(cold_query(k));
    }
  }
}

// Request k's catalog deployment: round k / F visits the F families in a
// seeded order, taking entry `round` of each at the catalog's default
// seed; the sampling rate carries a per-request jitter (inputs.h).
Scenario Inputs::deployment(std::size_t k) const {
  const std::uint64_t salt =
      workload_ == Workload::kColdWire ? kColdSalt : kSweepSalt;
  const auto& families = catalog_->families();
  const std::size_t round = k / families.size();
  std::vector<std::size_t> order(families.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffle = stream_for(seed_, salt, round);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.uniform_int(i)]);
  }
  const auto& family = *families[order[k % families.size()]];
  Scenario sc =
      family.expand(round % family.size(), edb::catalog::kDefaultSeed).scenario;
  sc.context.fs *= stream_for(seed_, salt ^ kJitterSalt, k).uniform(0.98, 1.02);
  return sc;
}

TuningQuery Inputs::query(std::size_t k) const {
  return k >= first_ && k - first_ < ahead_.size() ? ahead_[k - first_]
                                                   : cold_query(k);
}

std::vector<TuningQuery> Inputs::ladder(std::size_t k) const {
  if (k < first_ || (k - first_ + 1) * kLadderRungs > ahead_.size()) {
    return make_ladder(k);
  }
  const auto begin =
      ahead_.begin() + static_cast<std::ptrdiff_t>((k - first_) * kLadderRungs);
  return std::vector<TuningQuery>(begin, begin + kLadderRungs);
}

TuningQuery Inputs::cold_query(std::size_t k) const {
  TuningQuery q;
  q.scenario = deployment(k);
  q.protocols = kColdProtocols;
  return q;
}

std::vector<TuningQuery> Inputs::make_ladder(std::size_t k) const {
  const Scenario sc = deployment(k);
  std::vector<TuningQuery> ladder(kLadderRungs);
  for (int r = 0; r < kLadderRungs; ++r) {
    TuningQuery& q = ladder[static_cast<std::size_t>(r)];
    q.scenario = sc;
    q.scenario.requirements.l_max = sc.requirements.l_max * 0.25 *
                                    std::pow(10.0, r / (kLadderRungs - 1.0));
    q.protocols = kSweepProtocols;
  }
  return ladder;
}

void KeyAudit::add(const TuningQuery& q) {
  ++queries_;
  auto protocols = edb::service::canonical_protocol_set(q.protocols);
  if (!protocols.ok()) return;  // counted as a query, never as distinct
  seen_.insert(edb::service::query_key(q.scenario, *protocols, q.options).hash);
}

}  // namespace servebench
