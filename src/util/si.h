// SI unit helpers and strong-ish unit documentation conventions.
//
// The library represents physical quantities as `double` in base SI units
// (seconds, joules, watts, hertz, bits, bits/second).  Variables and struct
// fields carry the unit in their name or doc comment.  This header provides
// named constructors so call sites read like the paper:
//
//   double tw = edb::ms(100);      // 100 milliseconds -> 0.1 s
//   double p  = edb::mw(56.4);     // 56.4 milliwatts  -> 0.0564 W
//
// and formatting helpers for reports.
#pragma once

#include <string>

namespace edb {

// ---- time ------------------------------------------------------------
constexpr double ms(double v) { return v * 1e-3; }
constexpr double us(double v) { return v * 1e-6; }
constexpr double hours(double v) { return v * 3600.0; }

constexpr double to_ms(double seconds_v) { return seconds_v * 1e3; }

// ---- power ------------------------------------------------------------
constexpr double mw(double v) { return v * 1e-3; }
constexpr double to_mw(double watts_v) { return watts_v * 1e3; }

// ---- rate / data ------------------------------------------------------
constexpr double bytes(double v) { return v * 8.0; }
constexpr double kbps(double v) { return v * 1e3; }  // bits per second

// Formats a quantity with an SI-scaled suffix, e.g. 0.0123 -> "12.3m".
// `unit` is appended after the scale prefix ("s", "J", "W").
std::string si_format(double value, const char* unit, int precision = 4);

}  // namespace edb
