// Bit-level helpers shared across the library.
//
// All topology code works with guest identifiers in [0, N). Several
// quantities the paper uses (number of Chord fingers, CBT depth, PIF wave
// bounds) are functions of ceil(log2 N); keeping them in one place avoids
// off-by-one disagreements between modules.
#pragma once

#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace chs::util {

/// ceil(log2(x)) for x >= 1; 0 for x <= 1.
constexpr std::uint32_t ceil_log2(std::uint64_t x) {
  if (x <= 1) return 0;
  return static_cast<std::uint32_t>(64 - std::countl_zero(x - 1));
}

/// floor(log2(x)) for x >= 1; 0 for x == 0 (by convention, never queried).
constexpr std::uint32_t floor_log2(std::uint64_t x) {
  if (x == 0) return 0;
  return static_cast<std::uint32_t>(63 - std::countl_zero(x));
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) {
  return x <= 1 ? 1 : (std::uint64_t{1} << ceil_log2(x));
}

/// Number of Chord fingers per Definition 1: k ranges over [0, log N - 1),
/// i.e. ceil_log2(N) - 1 fingers (finger 0 is the ring successor edge).
constexpr std::uint32_t chord_num_fingers(std::uint64_t n_guests) {
  const std::uint32_t lg = ceil_log2(n_guests);
  return lg == 0 ? 0 : lg - 1;
}

/// The paper's per-wave round bound: one PIF wave over the guest CBT costs at
/// most 2 * (log N + 1) rounds (down then up, one guest level per round).
constexpr std::uint64_t pif_wave_round_bound(std::uint64_t n_guests) {
  return 2 * (static_cast<std::uint64_t>(ceil_log2(n_guests)) + 1);
}

/// Clockwise distance from guest `from` to guest `to` on the ring [0, n):
/// (to - from) mod n, without the division.
inline std::uint64_t ring_cw(std::uint64_t from, std::uint64_t to,
                             std::uint64_t n) {
  CHS_DCHECK(from < n && to < n);
  return to >= from ? to - from : to + n - from;
}

}  // namespace chs::util
