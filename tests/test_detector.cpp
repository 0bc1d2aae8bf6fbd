// Detector unit tests (§4.4, Definition 3): each corruption of a legal
// state must be flagged within the paper's latency bound — and, just as
// importantly, clean executions must never trip it (no false faults).
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "graph/generators.hpp"
#include "util/bitops.hpp"

namespace chs {
namespace {

using core::Params;
using core::Phase;
using core::StabEngine;
using graph::NodeId;
using stabilizer::HostState;
using topology::GuestId;
namespace fault = stabilizer::fault;

std::unique_ptr<StabEngine> legal_cbt_engine(std::uint64_t n_guests,
                                             std::size_t n_hosts,
                                             Phase phase) {
  util::Rng rng(77);
  auto ids = graph::sample_ids(n_hosts, n_guests, rng);
  Params p;
  p.n_guests = n_guests;
  auto eng = core::make_engine(core::scaffold_graph(ids, n_guests), p, 3);
  core::install_legal_cbt(*eng, phase);
  return eng;
}

std::uint64_t rounds_until_any_reset(StabEngine& eng, std::uint64_t budget) {
  const std::uint64_t before = core::total_resets(eng);
  for (std::uint64_t r = 0; r < budget; ++r) {
    eng.step_round();
    if (core::total_resets(eng) > before) return r;
  }
  return ~std::uint64_t{0};
}

TEST(Detector, LegalCbtStateIsStable) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  for (int r = 0; r < 200; ++r) eng->step_round();
  EXPECT_EQ(core::total_resets(*eng), 0u);
}

TEST(Detector, CleanFullRunHasNoFalseFaults) {
  // The strongest property: from clean singleton states, the entire build
  // (merging + Chord construction + DONE) never trips the detector.
  util::Rng rng(11);
  auto ids = graph::sample_ids(16, 64, rng);
  Params p;
  p.n_guests = 64;
  auto eng = core::make_engine(core::scaffold_graph(ids, 64), p, 3);
  core::install_legal_cbt(*eng, Phase::kCbt);
  const auto res = core::run_to_convergence(*eng, 10000);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.total_resets, 0u);
}

TEST(Detector, BadRangeDetectedImmediately) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  auto& st = eng->state_mut(eng->graph().ids()[3]);
  st.hi = st.lo;  // empty range: malformed
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, RangeIdMismatchDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  auto& st = eng->state_mut(eng->graph().ids()[5]);
  st.lo = st.id + 1 < st.hi ? st.id + 1 : st.lo;  // range not anchored at id
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, RootClaimMismatchDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  // A non-root host claiming to be its own cluster root.
  for (NodeId id : ids) {
    auto& st = eng->state_mut(id);
    if (!st.is_root()) {
      st.cluster = id;
      break;
    }
  }
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, BoundaryMapCorruptionDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  for (NodeId id : ids) {
    auto& st = eng->state_mut(id);
    if (!st.boundary_host.empty()) {
      st.boundary_host.erase(st.boundary_host.begin());
      break;
    }
  }
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, SuccTileViolationDetected) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const auto& ids = eng->graph().ids();
  auto& st = eng->state_mut(ids[2]);
  ASSERT_NE(st.succ, stabilizer::kNone);
  st.hi += 1;  // ranges no longer tile with succ's claimed start
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, PhaseMixtureInfectsToCbt) {
  // Lemma 2: set half the hosts to CHORD with no wave in flight: the CBT
  // absorbing rule plus phase mismatch must drag everyone to CBT quickly.
  auto eng = legal_cbt_engine(64, 16, Phase::kChord);
  const auto& ids = eng->graph().ids();
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    auto& st = eng->state_mut(ids[i]);
    st.phase = Phase::kCbt;
    st.fwd_maps.clear();
    st.rev_maps.clear();
    st.chord_gap_timer = 0;
    // A CBT host must not carry chord machinery; give it the clean reset
    // shape over the full guest space.
    st = stabilizer::HostState{};
    st.id = ids[i];
    st.phase = Phase::kCbt;
    st.cluster = ids[i];
    st.lo = 0;
    st.hi = 64;
    eng->protocol().recompute_fragments(st);
    st.nbrs = eng->graph().neighbors(ids[i]);
  }
  eng->republish();
  std::uint64_t rounds = 0;
  const auto all_cbt = [&] {
    for (NodeId id : ids) {
      if (eng->state(id).phase != Phase::kCbt) return false;
    }
    return true;
  };
  while (!all_cbt() && rounds < 500) {
    eng->step_round();
    ++rounds;
  }
  EXPECT_TRUE(all_cbt());
  EXPECT_LE(rounds, 2 * util::pif_wave_round_bound(64) + 8);
}

TEST(Detector, ChordWaveGapDetected) {
  // Definition 3 condition 3: a host whose wave counter is 2 ahead of a
  // structural neighbor's is not in any scaffolded configuration.
  auto eng = legal_cbt_engine(256, 32, Phase::kChord);
  core::install_chord_built_upto(*eng, 2);
  auto& st = eng->state_mut(eng->graph().ids()[10]);
  st.wave_k = 0;  // neighbors are at 2
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 2u);
}

TEST(Detector, FingerCoverageGapDetected) {
  auto eng = legal_cbt_engine(256, 32, Phase::kChord);
  core::install_chord_built_upto(*eng, 2);
  auto& st = eng->state_mut(eng->graph().ids()[7]);
  if (!st.fwd_maps.empty()) st.fwd_maps[1].clear();
  eng->republish();
  EXPECT_LE(rounds_until_any_reset(*eng, 100), 1u);
}

TEST(Detector, ResetKeepsAllEdges) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const std::size_t edges_before = eng->graph().num_edges();
  auto& st = eng->state_mut(eng->graph().ids()[0]);
  st.hi = st.lo;  // force a fault
  eng->republish();
  eng->step_round();
  // The reset keeps the connectivity substrate: no edge deletions at reset
  // time (redundant-edge hygiene only happens in consistent states).
  EXPECT_GE(eng->graph().num_edges() + 1, edges_before);
}

TEST(Detector, ResetStateIsSingleton) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  const NodeId victim = eng->graph().ids()[4];
  auto& st = eng->state_mut(victim);
  st.hi = st.lo;
  eng->republish();
  eng->step_round();
  const auto& after = eng->state(victim);
  EXPECT_EQ(after.phase, Phase::kCbt);
  EXPECT_EQ(after.cluster, victim);
  EXPECT_EQ(after.lo, 0u);
  EXPECT_EQ(after.hi, 64u);
  EXPECT_EQ(after.resets, 1u);
}

// --- fault codes ----------------------------------------------------------

TEST(FaultCodes, ValuesArePinned) {
  // HostState::fault_line is checkpointed, so the codes are blob format:
  // each equals the detector.cpp line its check had when the codes were
  // recorded with __LINE__.
  EXPECT_EQ(fault::kSelfIdMismatch, 51);
  EXPECT_EQ(fault::kMalformedRange, 53);
  EXPECT_EQ(fault::kNoCluster, 60);
  EXPECT_EQ(fault::kMissingBoundaryKey, 67);
  EXPECT_EQ(fault::kMissingParentKey, 70);
  EXPECT_EQ(fault::kCrossingKeyCount, 75);
  EXPECT_EQ(fault::kParentRef, 135);
  EXPECT_EQ(fault::kWaveGap, 191);
  EXPECT_EQ(fault::kDoneMissingNeighbor, 222);
}

/// Apply `corrupt` to the first host it accepts (returns true for), step
/// one round, and return the fault code that host recorded (-1 if no host
/// was accepted).
int fault_after(StabEngine& eng,
                const std::function<bool(HostState&)>& corrupt) {
  for (NodeId id : eng.graph().ids()) {
    if (!corrupt(eng.state_mut(id))) continue;
    eng.republish();
    const std::uint64_t resets = eng.state(id).resets;
    eng.step_round();
    EXPECT_EQ(eng.state(id).resets, resets + 1) << "host " << id;
    return eng.state(id).fault_line;
  }
  return -1;
}

TEST(FaultCodes, DetectorRecordsPinnedCodes) {
  auto eng = legal_cbt_engine(64, 16, Phase::kCbt);
  EXPECT_EQ(fault_after(*eng,
                        [](HostState& st) {
                          st.hi = st.lo;  // empty range
                          return true;
                        }),
            53);

  eng = legal_cbt_engine(64, 16, Phase::kCbt);
  EXPECT_EQ(fault_after(*eng,
                        [](HostState& st) {
                          if (st.boundary_host.empty()) return false;
                          st.boundary_host.erase(st.boundary_host.begin());
                          return true;
                        }),
            67);

  eng = legal_cbt_engine(64, 16, Phase::kCbt);
  EXPECT_EQ(fault_after(*eng,
                        [](HostState& st) {
                          // An unforced extra key: every forced key is
                          // present, so only the count test fails.
                          if (st.parent_host.empty()) return false;
                          for (GuestId g = st.lo; g < st.hi; ++g) {
                            if (st.parent_host.count(g)) continue;
                            st.parent_host[g] = st.parent_host.begin()->second;
                            return true;
                          }
                          return false;
                        }),
            75);
}

// --- cached crossing-key check vs the reference walk (DESIGN.md D17) -------

/// Replace the maps' keys by exactly those Cbt::crossing_edges(lo, hi)
/// forces (the values are irrelevant to the key checks).
void key_maps(const topology::Cbt& cbt, HostState& st, std::uint64_t lo,
              std::uint64_t hi) {
  st.boundary_host.clear();
  st.parent_host.clear();
  for (const auto& ce : cbt.crossing_edges(lo, hi)) {
    auto& map = ce.child_inside ? st.parent_host : st.boundary_host;
    map[ce.child_pos] = ce.parent_pos;
  }
}

std::pair<std::uint64_t, std::uint64_t> random_range(util::Rng& rng,
                                                     std::uint64_t n) {
  const std::uint64_t lo = rng.next_below(n);
  return {lo, lo + 1 + rng.next_below(n - lo)};
}

/// Corrupted copies of `base` (which must have a fresh cache): keys added
/// (mid-map and past every real key), dropped, shifted by one, or moved to
/// the other map; and range edits that leave the cache stale, with the maps
/// either left alone or re-keyed for the new range.
std::vector<std::pair<std::string, HostState>> corruptions(
    const topology::Cbt& cbt, const HostState& base, util::Rng& rng) {
  using Map = util::FlatMap<GuestId, NodeId>;
  const std::uint64_t n = cbt.n();
  std::vector<std::pair<std::string, HostState>> out;
  out.emplace_back("clean", base);
  for (const bool boundary : {true, false}) {
    const std::string tag = boundary ? " boundary" : " parent";
    const auto map_of = [boundary](HostState& st) -> Map& {
      return boundary ? st.boundary_host : st.parent_host;
    };
    const auto other_of = [boundary](HostState& st) -> Map& {
      return boundary ? st.parent_host : st.boundary_host;
    };
    HostState c = base;
    if (const GuestId g = rng.next_below(n); !map_of(c).count(g)) {
      map_of(c)[g] = 0;
      out.emplace_back("add" + tag, c);
    }
    c = base;
    map_of(c)[n] = 0;
    out.emplace_back("append" + tag, c);

    if (map_of(c = base).empty()) continue;
    auto it = map_of(c).begin();
    std::advance(it, rng.next_below(map_of(c).size()));
    const GuestId g = it->first;
    const NodeId host = it->second;
    map_of(c).erase(it);
    out.emplace_back("drop" + tag, c);
    for (const GuestId to : {g - 1, g + 1}) {  // g - 1 wraps when g == 0
      HostState s = c;
      if (to >= n || map_of(s).count(to)) continue;
      map_of(s)[to] = host;
      out.emplace_back("shift" + tag, s);
    }
    if (!other_of(c).count(g)) {
      other_of(c)[g] = host;
      out.emplace_back("move" + tag, c);
    }
  }
  for (int k = 0; k < 3; ++k) {
    const auto [lo, hi] = random_range(rng, n);
    HostState c = base;
    c.lo = lo;
    c.hi = hi;
    if (c.frags_current()) continue;
    out.emplace_back("stale range", c);
    key_maps(cbt, c, lo, hi);
    out.emplace_back("stale range, maps re-keyed", c);
  }
  if (base.hi - base.lo >= 2) {
    HostState c = base;
    c.hi -= 1;
    out.emplace_back("stale truncate", c);
  }
  return out;
}

TEST(CrossingKeys, CachedVerdictEqualsReference) {
  // Exactness of the one-pass check: it answers "keys match" exactly when
  // the cache is fresh and the reference walk finds no fault, over random
  // ranges (whole space, the guest root alone, and ranges with and without
  // it) at sizes from 4 guests up.
  util::Rng rng(2024);
  std::size_t matched = 0, faulted = 0, stale = 0, with_root = 0;
  for (const std::uint64_t n : {4, 5, 7, 16, 64, 100, 512, 1000}) {
    Params p;
    p.n_guests = n;
    const stabilizer::Protocol proto(p);
    for (int trial = 0; trial < 60; ++trial) {
      const GuestId root = proto.guest_root();
      const auto [lo, hi] = trial == 0   ? std::pair{GuestId{0}, n}
                            : trial == 1 ? std::pair{root, root + 1}
                                         : random_range(rng, n);
      HostState base;
      base.lo = lo;
      base.hi = hi;
      proto.recompute_fragments(base);
      key_maps(proto.cbt(), base, lo, hi);
      with_root += lo <= root && root < hi;
      for (const auto& [what, st] : corruptions(proto.cbt(), base, rng)) {
        const int ref = proto.crossing_key_fault(st);
        const bool fast = proto.crossing_keys_match_cache(st);
        EXPECT_EQ(fast, st.frags_current() && ref == 0)
            << "n=" << n << " [" << lo << ", " << hi << ") " << what
            << " ref=" << ref;
        matched += fast;
        faulted += ref != 0;
        stale += !st.frags_current();
      }
    }
  }
  EXPECT_GT(matched, 400u);
  EXPECT_GT(faulted, 2000u);
  EXPECT_GT(stale, 1000u);
  EXPECT_GT(with_root, 100u);
}

TEST(CrossingKeys, DetectorRecordsTheReferenceCode) {
  // Through check_local on a live network: one host's corrupted maps make
  // it record exactly the reference walk's code. A range edit may trip a
  // well-formedness check first (codes up to kNoCluster); otherwise the
  // stale cache must fall back to the walk and record its code too.
  const auto legal = legal_cbt_engine(256, 32, Phase::kCbt);
  const auto& ids = legal->graph().ids();
  util::Rng rng(9);
  std::size_t map_cases = 0, stale_cases = 0;
  for (std::size_t i = 0; i < ids.size(); i += 4) {
    const NodeId id = ids[i];
    for (const auto& [what, st] :
         corruptions(legal->protocol().cbt(), legal->state(id), rng)) {
      const int ref = legal->protocol().crossing_key_fault(st);
      if (ref == 0) continue;
      auto eng = legal_cbt_engine(256, 32, Phase::kCbt);
      eng->state_mut(id) = st;
      eng->republish();
      eng->step_round();
      const int got = eng->state(id).fault_line;
      if (st.frags_current()) {
        EXPECT_EQ(got, ref) << "host " << id << ": " << what;
        ++map_cases;
      } else {
        EXPECT_TRUE(got == ref || got <= fault::kNoCluster)
            << "host " << id << ": " << what << " got " << got << " ref "
            << ref;
        stale_cases += got == ref;
      }
    }
  }
  EXPECT_GT(map_cases, 40u);
  EXPECT_GT(stale_cases, 0u);
}

}  // namespace
}  // namespace chs
