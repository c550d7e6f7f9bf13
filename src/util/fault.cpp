#include "util/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "util/fingerprint.h"
#include "util/rng.h"

namespace edb::fault {

namespace {

// The active plan, published via atomic pointer.  A concurrent inject()
// may still be reading a superseded plan, so every installed plan lives
// until exit in g_installed (never destroyed, so no exit-time reader can
// see it freed); installs happen at test/bench setup rate, so retaining
// them is cheaper than an epoch scheme.
std::atomic<const FaultPlan*> g_plan{nullptr};
std::mutex g_installed_mutex;
auto* const g_installed = new std::deque<FaultPlan>();  // stable addresses

bool parse_rate(std::string_view text, double* out) {
  char* end = nullptr;
  const std::string tmp(text);
  const double v = std::strtod(tmp.c_str(), &end);
  if (end == tmp.c_str() || !(v >= 0.0 && v <= 1.0)) return false;
  *out = v;
  return true;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kFail: return "fail";
    case Kind::kStall: return "stall";
    case Kind::kCrash: return "crash";
  }
  return "unknown";
}

Expected<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    std::string_view clause = spec.substr(
        pos, semi == std::string_view::npos ? std::string_view::npos
                                            : semi - pos);
    pos = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (clause.empty()) continue;

    if (clause.substr(0, 5) == "seed=") {
      const std::string tmp(clause.substr(5));
      char* end = nullptr;
      plan.seed_ = std::strtoull(tmp.c_str(), &end, 10);
      if (end == tmp.c_str() || *end != '\0') {
        return make_error(ErrorCode::kInvalidArgument,
                          "fault plan: bad seed clause '" + std::string(clause) +
                              "'");
      }
      continue;
    }

    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return make_error(ErrorCode::kInvalidArgument,
                        "fault plan: clause '" + std::string(clause) +
                            "' is not <site>:<kind>=<rate>[,...]");
    }
    SiteSpec site;
    site.site = std::string(clause.substr(0, colon));

    std::string_view rest = clause.substr(colon + 1);
    std::size_t rpos = 0;
    while (rpos <= rest.size()) {
      const std::size_t comma = rest.find(',', rpos);
      std::string_view tok = rest.substr(
          rpos, comma == std::string_view::npos ? std::string_view::npos
                                                : comma - rpos);
      rpos = comma == std::string_view::npos ? rest.size() + 1 : comma + 1;
      if (tok.empty()) continue;

      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return make_error(ErrorCode::kInvalidArgument,
                          "fault plan: token '" + std::string(tok) +
                              "' is not <kind>=<rate>");
      }
      const std::string_view kind = tok.substr(0, eq);
      std::string_view value = tok.substr(eq + 1);

      // A stall rate may carry an `@<number>ms` duration suffix.
      double stall_ms = site.stall_ms;
      const std::size_t at = value.find('@');
      if (at != std::string_view::npos) {
        std::string_view dur = value.substr(at + 1);
        value = value.substr(0, at);
        if (kind != "stall" || dur.size() < 3 ||
            dur.substr(dur.size() - 2) != "ms") {
          return make_error(ErrorCode::kInvalidArgument,
                            "fault plan: bad duration in '" +
                                std::string(tok) + "' (want stall=R@Nms)");
        }
        char* end = nullptr;
        const std::string tmp(dur.substr(0, dur.size() - 2));
        stall_ms = std::strtod(tmp.c_str(), &end);
        if (end == tmp.c_str() || !(stall_ms >= 0)) {
          return make_error(ErrorCode::kInvalidArgument,
                            "fault plan: bad duration in '" +
                                std::string(tok) + "'");
        }
      }

      double rate = 0;
      if (!parse_rate(value, &rate)) {
        return make_error(ErrorCode::kInvalidArgument,
                          "fault plan: rate in '" + std::string(tok) +
                              "' must lie in [0, 1]");
      }
      if (kind == "fail") {
        site.fail = rate;
      } else if (kind == "stall") {
        site.stall = rate;
        site.stall_ms = stall_ms;
      } else if (kind == "crash") {
        site.crash = rate;
      } else {
        return make_error(ErrorCode::kInvalidArgument,
                          "fault plan: unknown kind '" + std::string(kind) +
                              "' (want fail/stall/crash)");
      }
    }
    if (site.fail + site.stall + site.crash > 1.0) {
      return make_error(ErrorCode::kInvalidArgument,
                        "fault plan: rates for site '" + site.site +
                            "' sum past 1");
    }
    plan.sites_.push_back(std::move(site));
  }
  return plan;
}

Action FaultPlan::evaluate(std::string_view site, std::uint64_t key,
                           std::uint32_t attempt) const {
  for (const SiteSpec& s : sites_) {
    if (s.site != site) continue;
    // One uniform draw from the (seed, site, key, attempt) stream; the
    // chained splitmix64 rounds decorrelate the structured inputs
    // exactly as engine::job_seed does.
    std::uint64_t h = splitmix64(seed_ ^ fnv1a64(site));
    h = splitmix64(h ^ key);
    h = splitmix64(h ^ (0x5bf03635ULL + attempt));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
    if (u < s.fail) return Action{Kind::kFail, 0};
    if (u < s.fail + s.stall) return Action{Kind::kStall, s.stall_ms};
    if (u < s.fail + s.stall + s.crash) return Action{Kind::kCrash, 0};
    return Action{};
  }
  return Action{};
}

void install(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(g_installed_mutex);
  g_plan.store(&g_installed->emplace_back(std::move(plan)),
               std::memory_order_release);
}

void uninstall() { g_plan.store(nullptr, std::memory_order_release); }

bool active() {
  return g_plan.load(std::memory_order_acquire) != nullptr;
}

bool install_from_env() {
  const char* spec = std::getenv("EDB_FAULT_PLAN");
  if (!spec || !*spec) return active();
  auto plan = FaultPlan::parse(spec);
  EDB_ASSERT(plan.ok(), "EDB_FAULT_PLAN does not parse");
  install(std::move(plan).take());
  return true;
}

Action inject(std::string_view site, std::uint64_t key,
              std::uint32_t attempt) {
  const FaultPlan* plan = g_plan.load(std::memory_order_acquire);
  if (!plan) return Action{};
  return plan->evaluate(site, key, attempt);
}

void apply_stall(const Action& a) {
  if (a.kind != Kind::kStall || a.stall_ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      a.stall_ms));
}

bool lost(std::string_view site, std::uint64_t key, std::uint32_t attempt) {
  const Action a = inject(site, key, attempt);
  apply_stall(a);
  return a.kind == Kind::kFail || a.kind == Kind::kCrash;
}

}  // namespace edb::fault
