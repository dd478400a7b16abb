// hpcc/util/env.h
//
// Shared environment-variable parsing for the numeric HPCC_* knobs,
// HPCC_THREADS and HPCC_FAULT_SEED. The other two knobs, HPCC_TRACE and
// HPCC_METRICS, are paths and go through obs::Config::from_env.
// Every site used to hand-roll std::getenv + strtol with different
// answers for "0", "abc" and "16x" — env_uint gives them one contract.
#pragma once

#include <cstdint>
#include <limits>

namespace hpcc::util {

/// Parses environment variable `name` as a base-10 unsigned integer.
/// Returns `fallback` when the variable is unset, empty, malformed
/// (non-numeric, trailing junk, overflow) or outside [min, max] — an
/// out-of-range request falls back rather than silently clamping, so
/// `HPCC_THREADS=0` means "use the default", matching what every
/// pre-existing call site did with its own parser.
std::uint64_t env_uint(
    const char* name, std::uint64_t fallback, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace hpcc::util
