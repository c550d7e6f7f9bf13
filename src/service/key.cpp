#include "service/key.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "mac/registry.h"

namespace edb::service {
namespace {

// The scenario walk's visitor: accumulates "name=token;" pairs and
// finishes into a QueryKey.
class KeyBuilder {
 public:
  void operator()(std::string_view name, double v) {
    (*this)(name, std::string_view(quantize_token(v)));
  }
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void operator()(std::string_view name, T v) {
    (*this)(name, std::string_view(std::to_string(static_cast<int>(v))));
  }
  void operator()(std::string_view name, std::string_view token) {
    canonical_.append(name);
    canonical_.push_back('=');
    canonical_.append(token);
    canonical_.push_back(';');
  }
  QueryKey build() && {
    QueryKey key;
    key.hash = fnv1a64(canonical_);
    key.canonical = std::move(canonical_);
    return key;
  }

 private:
  std::string canonical_;
};

void append_scenario(KeyBuilder& b, const core::Scenario& s,
                     const QueryOptions& opts) {
  core::for_each_field(s, b);
  b("opts.alpha", opts.alpha);
}

}  // namespace

std::string quantize_token(double v) {
  if (v == 0.0) v = 0.0;  // fold -0 into +0
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9e", v);
  // Keys may be persisted across processes, so the canonical form must
  // not depend on the host's LC_NUMERIC decimal point.
  for (char* c = buf; *c; ++c) {
    if (*c == ',') *c = '.';
  }
  return buf;
}

Expected<std::vector<std::string>> canonical_protocol_set(
    const std::vector<std::string>& protocols) {
  std::vector<std::string> out;
  if (protocols.empty()) {
    // The default set goes through the same sort as explicit lists, so
    // "no protocols" and any spelling of the paper's three produce one
    // canonical order (and therefore one key).
    out = mac::paper_protocols();
  } else {
    for (const auto& name : protocols) {
      // The registry's own spelling rule, so a name accepted here is a
      // name make_model accepts.
      auto resolved = mac::resolve_protocol(name);
      if (!resolved.ok()) return resolved.error();
      out.push_back(std::move(resolved).take());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

QueryKey context_key(const mac::ModelContext& ctx) {
  KeyBuilder b;
  mac::for_each_field(ctx, b);
  return std::move(b).build();
}

QueryKey protocol_key(const core::Scenario& scenario,
                      std::string_view protocol, const QueryOptions& opts) {
  KeyBuilder b;
  append_scenario(b, scenario, opts);
  b("protocol", protocol);
  return std::move(b).build();
}

QueryKey query_key(const core::Scenario& scenario,
                   const std::vector<std::string>& canonical_protocols,
                   const QueryOptions& opts) {
  KeyBuilder b;
  append_scenario(b, scenario, opts);
  std::string set;
  for (const auto& p : canonical_protocols) {
    if (!set.empty()) set.push_back(',');
    set.append(p);
  }
  b("protocols", std::string_view(set));
  return std::move(b).build();
}

}  // namespace edb::service
