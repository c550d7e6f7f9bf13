#include "service/key.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <type_traits>

#include "mac/registry.h"

namespace edb::service {
namespace {

// A "%.9e" token of v (-0 folded into +0) written into buf.  to_chars
// with scientific precision 9 is defined as printf's "%.9e" in the C
// locale, so no LC_NUMERIC setting can change it.
std::string_view format_token(std::array<char, 32>& buf, double v) {
  if (v == 0.0) v = 0.0;  // fold -0 into +0
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                               std::chars_format::scientific, 9);
  return {buf.data(), static_cast<std::size_t>(r.ptr - buf.data())};
}

// The scenario walk's visitor: accumulates "name=token;" pairs and
// finishes into a QueryKey.
class KeyBuilder {
 public:
  // Every token has a bounded width, so a scenario's ~650 bytes fit.
  KeyBuilder() { canonical_.reserve(1024); }
  void operator()(std::string_view name, double v) {
    std::array<char, 32> buf;
    (*this)(name, format_token(buf, v));
  }
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void operator()(std::string_view name, T v) {
    std::array<char, 16> buf;
    const auto r = std::to_chars(buf.data(), buf.data() + buf.size(),
                                 static_cast<int>(v));
    (*this)(name, std::string_view(buf.data(), r.ptr - buf.data()));
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

}  // namespace

std::string quantize_token(double v) {
  std::array<char, 32> buf;
  return std::string(format_token(buf, v));
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

KeyPrefix::KeyPrefix(const core::Scenario& scenario,
                     const QueryOptions& opts) {
  KeyBuilder b;
  core::for_each_field(scenario, b);
  b("opts.alpha", opts.alpha);
  prefix_ = std::move(b).build();
}

template <typename Values>
QueryKey KeyPrefix::extend(std::string_view name,
                           const Values& values) const {
  std::size_t size = prefix_.canonical.size() + name.size() + 1;
  for (const auto& v : values) size += std::string_view(v).size() + 1;
  QueryKey key;
  key.canonical.reserve(size);
  key.canonical.append(prefix_.canonical).append(name).push_back('=');
  std::string_view sep;
  for (const auto& v : values) {
    key.canonical.append(sep).append(v);
    sep = ",";
  }
  key.canonical.push_back(';');
  // FNV-1a is a left fold over the bytes, so continuing the prefix's
  // state over the suffix gives fnv1a64 of the whole canonical.
  key.hash = fnv1a64(
      std::string_view(key.canonical).substr(prefix_.canonical.size()),
      prefix_.hash);
  return key;
}

QueryKey KeyPrefix::protocol_key(std::string_view protocol) const {
  return extend("protocol", std::array{protocol});
}

QueryKey KeyPrefix::query_key(
    const std::vector<std::string>& canonical_protocols) const {
  return extend("protocols", canonical_protocols);
}

QueryKey protocol_key(const core::Scenario& scenario,
                      std::string_view protocol, const QueryOptions& opts) {
  return KeyPrefix(scenario, opts).protocol_key(protocol);
}

QueryKey query_key(const core::Scenario& scenario,
                   const std::vector<std::string>& canonical_protocols,
                   const QueryOptions& opts) {
  return KeyPrefix(scenario, opts).query_key(canonical_protocols);
}

}  // namespace edb::service
