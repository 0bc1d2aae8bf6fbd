#include "routing/finger_router.hpp"

namespace chs::routing {

void FingerRouter::build(const FingerMaps& fwd, std::uint64_t hi, NodeId succ,
                         std::uint64_t n) {
  CHS_CHECK(n >= 1);
  // Breakpoints: between two consecutive ones every candidate either
  // contains t (distance 0 throughout) or lies wholly behind it (distance
  // +1 per guest), so the scan's order — and its winner — cannot change.
  std::vector<GuestId> starts{0};
  for (const auto& level : fwd) {
    for (const auto& e : level.entries()) {
      starts.push_back(e.lo);
      starts.push_back(e.hi);
    }
  }
  if (succ != kNoHop) starts.push_back(hi % n);
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  while (starts.back() >= n) starts.pop_back();  // an entry ending at n

  const auto every_host = [](NodeId) { return true; };
  segs_.clear();
  for (const GuestId s : starts) {
    const NodeId winner = closest_preceding(fwd, hi, succ, s, n, every_host);
    if (segs_.empty() || segs_.back().winner != winner) {
      segs_.push_back({s, winner});
    }
  }
  segs_.shrink_to_fit();
}

}  // namespace chs::routing
