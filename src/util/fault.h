// Deterministic fault injection: rehearsing failure as a pure function.
//
// A FaultPlan maps named injection sites ("engine.job", "planner.solve",
// "cache.lookup", "service.dispatch") to fault rates.  Whether a given
// invocation faults — and which kind of fault fires — is a pure function
// of (site, plan seed, caller-supplied stable key, attempt counter),
// derived through the same splitmix64 streams every other deterministic
// layer keys on (util/rng.h).  Callers pass a *stable identity* for the
// key (a canonical query-key hash, a fan job index), never an arrival
// order, so an identical plan + seed yields a byte-identical fault
// sequence at 1, 4 or 8 threads and under any submission interleaving —
// the Bobpp-style reproducibility contract extended from results to
// failures (ROADMAP, PAPERS.md).
//
// Fault kinds, and what a site is expected to do with them:
//
//   kFail  — transient error: the operation reports kUnavailable; retry
//            with a bumped `attempt` re-rolls the decision, so bounded
//            retries converge deterministically.
//   kStall — latency stall: the operation sleeps for the configured
//            duration, then proceeds normally.  Results are untouched;
//            only tail latency moves.
//   kCrash — the work is lost: the site treats the execution as if the
//            worker died mid-job (engine::Fan re-runs the job and
//            charges the wasted execution; the service's miss path
//            reports kUnavailable and falls down the degradation
//            ladder).  Nothing actually aborts — the point is to
//            rehearse the failure, not to suffer it.
//
// Plan specs are strings (also read from the EDB_FAULT_PLAN environment
// variable):
//
//   "seed=42;engine.job:fail=0.01;planner.solve:fail=0.01,stall=0.005@2ms,crash=0.001"
//
// Clauses are ';'-separated.  `seed=N` sets the plan's stream seed
// (default 0).  Every other clause is `<site>:<kind>=<rate>[,...]` with
// kinds fail/stall/crash and rates in [0, 1] summing to at most 1 per
// site; a stall rate may carry an `@<number>ms` duration suffix
// (default 1 ms).
//
// Cost when no plan is installed: inject() is one acquire atomic load
// and a predictable branch — the injection sites are dormant, not
// compiled out, and the serving benches gate that this is unmeasurable.
//
// Thread-safety: parse() and evaluate() are pure; install()/uninstall()
// may race inject() freely (the active plan is published through an
// atomic pointer; superseded plans are kept alive until exit, installs
// are test/bench-rate events).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace edb::fault {

enum class Kind {
  kNone,
  kFail,   // transient error (kUnavailable)
  kStall,  // latency stall, then proceed
  kCrash,  // execution lost; work must be redone or degraded
};

const char* kind_name(Kind k);

struct Action {
  Kind kind = Kind::kNone;
  double stall_ms = 0;  // kStall only

  bool fires() const { return kind != Kind::kNone; }
};

// One site's configured rates.  Probabilities are disjoint slices of one
// uniform draw: fail first, then stall, then crash.
struct SiteSpec {
  std::string site;
  double fail = 0;
  double stall = 0;
  double crash = 0;
  double stall_ms = 1.0;
};

class FaultPlan {
 public:
  // Parses the spec grammar above.  kInvalidArgument on malformed
  // clauses, unknown kinds, rates outside [0, 1] or per-site sums > 1.
  static Expected<FaultPlan> parse(std::string_view spec);

  // The decision: pure in (site, seed, key, attempt).  Sites the plan
  // does not mention never fire.
  Action evaluate(std::string_view site, std::uint64_t key,
                  std::uint32_t attempt = 0) const;

  std::uint64_t seed() const { return seed_; }
  const std::vector<SiteSpec>& sites() const { return sites_; }

 private:
  std::uint64_t seed_ = 0;
  std::vector<SiteSpec> sites_;  // declaration order; linear site lookup
                                 // (plans mention a handful of sites)
};

// Publishes `plan` as the process-wide active plan.
void install(FaultPlan plan);
// Deactivates injection (the previously active plan is leaked by design).
void uninstall();
// True when a plan is active (the inject() fast-path check).
bool active();
// Installs from EDB_FAULT_PLAN when the variable is set and parses;
// returns whether a plan is now active.  A malformed spec aborts — a
// chaos run with a typo'd plan must not silently measure nothing.
bool install_from_env();

// The hot-path entry: evaluates the active plan, or returns kNone after
// one acquire atomic load when no plan is installed.
Action inject(std::string_view site, std::uint64_t key,
              std::uint32_t attempt = 0);

// Sleeps for a kStall action's duration; no-op for other kinds.
void apply_stall(const Action& a);

// Attempts a retrying site makes before it gives up (engine.job's ladder
// and the service.dispatch loop).
inline constexpr std::uint32_t kMaxAttempts = 4;

// The single-shot site rule: injects at (site, key, attempt), sleeps
// through a stall and returns false; returns true when a fail or a crash
// loses this attempt's work; returns false when nothing fires.
bool lost(std::string_view site, std::uint64_t key,
          std::uint32_t attempt = 0);

}  // namespace edb::fault
