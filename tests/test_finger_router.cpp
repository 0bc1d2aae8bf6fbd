// The shared finger router (DESIGN.md D16): its per-host next-hop table must
// answer exactly what the closest-preceding scan answers, for every target,
// routing state and usable set; it must never reach a checkpoint; and a
// restored engine must route exactly like one that never stopped. These run
// in every build — the per-hop table == scan cross-check is a CHS_DCHECK,
// compiled out of the RelWithDebInfo CI build.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/network.hpp"
#include "dht/kvstore.hpp"
#include "graph/generators.hpp"
#include "persist/fields.hpp"
#include "routing/finger_router.hpp"
#include "routing/protocol.hpp"
#include "util/rng.hpp"

namespace chs::routing {
namespace {

// --- table == scan on random routing states -------------------------------

struct RandomState {
  std::uint64_t n = 0, lo = 0, hi = 0;
  FingerMaps fwd;
  NodeId succ = kNoHop;
};

constexpr NodeId kSelf = 1000;

// A host value for a finger entry: mostly a small pool (so ties between
// candidates naming the same host are common), sometimes the host itself or
// kNoHop.
NodeId random_host(util::Rng& rng) {
  const std::uint64_t r = rng.next_below(16);
  if (r == 0) return kSelf;
  if (r == 1) return kNoHop;
  return rng.next_below(8);
}

RandomState random_state(util::Rng& rng) {
  RandomState s;
  s.n = 1 + rng.next_below(rng.next_below(4) == 0 ? 8 : 300);
  // Range: usually a proper [lo, hi), sometimes rangeless (lo == hi), and
  // sometimes ending exactly at n.
  switch (rng.next_below(4)) {
    case 0:
      s.lo = s.hi = rng.next_below(s.n + 1);
      break;
    case 1:
      s.lo = rng.next_below(s.n);
      s.hi = s.n;
      break;
    default:
      s.lo = rng.next_below(s.n);
      s.hi = s.lo + 1 + rng.next_below(s.n - s.lo);
      break;
  }
  const std::uint64_t levels = rng.next_below(10);
  s.fwd.resize(levels);
  for (auto& level : s.fwd) {
    const std::uint64_t images = rng.next_below(6);
    for (std::uint64_t k = 0; k < images; ++k) {
      // An image of a range under +2^k: contiguous on the ring, so it is
      // split in two entries for the same host when it wraps past n.
      const std::uint64_t a = rng.next_below(s.n);
      const std::uint64_t len = 1 + rng.next_below(s.n);
      const NodeId h = random_host(rng);
      if (a + len <= s.n) {
        level.assign(a, a + len, h);
      } else {
        level.assign(a, s.n, h);
        level.assign(0, a + len - s.n, h);
      }
    }
  }
  s.succ = rng.next_below(5) == 0 ? kNoHop : random_host(rng);
  return s;
}

TEST(FingerRouter, TableMatchesScanForEveryTargetAndUsableSet) {
  util::Rng rng(20260);
  std::uint64_t fallbacks = 0, table_hits = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const RandomState s = random_state(rng);
    // A random usable mask over the host pool (plus self and the empty
    // mask), as the KV plane's down flags or the lookup plane's neighbor
    // list would produce.
    std::vector<bool> mask(9);
    const std::uint64_t density = rng.next_below(4);
    for (auto&& bit : mask) bit = density == 3 || rng.next_below(3) < density;
    const auto usable = [&](NodeId h) {
      return h == kSelf ? bool(mask[8]) : h < 8 && bool(mask[h]);
    };
    const auto every_host = [](NodeId) { return true; };
    FingerRouter router;
    FingerRouter unrestricted;
    for (std::uint64_t t = 0; t < s.n; ++t) {
      const bool local = t >= s.lo && t < s.hi;
      const NodeId want =
          local ? kNoHop
                : closest_preceding(s.fwd, s.hi, s.succ, t, s.n, usable);
      const NodeId got =
          router.next_hop(s.lo, s.hi, s.fwd, s.succ, t, s.n, usable);
      ASSERT_EQ(got, want) << "trial " << trial << " n=" << s.n << " t=" << t
                           << " range [" << s.lo << ", " << s.hi << ")";
      const NodeId all =
          local ? kNoHop
                : closest_preceding(s.fwd, s.hi, s.succ, t, s.n, every_host);
      ASSERT_EQ(unrestricted.next_hop(s.lo, s.hi, s.fwd, s.succ, t, s.n,
                                      every_host),
                all)
          << "trial " << trial << " t=" << t;
      if (!local) (all == want ? table_hits : fallbacks) += 1;
    }
    if (router.segments() > 0) {
      // At most one segment per breakpoint (fewer after merging).
      std::size_t entries = 0;
      for (const auto& level : s.fwd) entries += level.size();
      EXPECT_LE(router.segments(), 2 * entries + 2);
    }
    // invalidate() drops the table; the rebuild answers the same.
    router.invalidate();
    EXPECT_EQ(router.segments(), 0u);
    for (std::uint64_t t = 0; t < s.n; ++t) {
      const bool local = t >= s.lo && t < s.hi;
      ASSERT_EQ(router.next_hop(s.lo, s.hi, s.fwd, s.succ, t, s.n, usable),
                local ? kNoHop
                      : closest_preceding(s.fwd, s.hi, s.succ, t, s.n, usable));
    }
  }
  // Both answers were exercised: the table's own winner and the fallback.
  EXPECT_GT(table_hits, 1000u);
  EXPECT_GT(fallbacks, 1000u);
}

TEST(FingerRouter, AdjacentSegmentsAreMerged) {
  // One level, two entries for the same host: without merging the table
  // would hold a segment per breakpoint.
  FingerMaps fwd(1);
  fwd[0].assign(10, 20, 7);
  fwd[0].assign(30, 40, 7);
  FingerRouter router;
  const auto every_host = [](NodeId) { return true; };
  EXPECT_EQ(router.next_hop(0, 5, fwd, kNoHop, 25, 64, every_host), 7u);
  EXPECT_EQ(router.segments(), 1u);
  // A different successor splits the ring at its guest (hi % n == 5).
  FingerRouter with_succ;
  EXPECT_EQ(with_succ.next_hop(0, 5, fwd, 9, 6, 64, every_host), 9u);
  EXPECT_EQ(with_succ.next_hop(0, 5, fwd, 9, 25, 64, every_host), 7u);
  EXPECT_GT(with_succ.segments(), 1u);
}

// --- the planes: checkpoint bytes and restore -----------------------------

std::unique_ptr<core::StabEngine> converged(std::uint64_t seed) {
  util::Rng rng(seed);
  auto ids = graph::sample_ids(24, 128, rng);
  core::Params p;
  p.n_guests = 128;
  auto eng = core::make_engine(core::scaffold_graph(ids, 128), p, seed);
  core::install_legal_cbt(*eng, core::Phase::kChord);
  CHS_CHECK(core::run_to_convergence(*eng, 100000).converged);
  return eng;
}

const core::StabEngine& fixture() {
  static const auto eng = converged(77);
  return *eng;
}

using dht::KvEngine;
using KvMessage = dht::KvProtocol::Message;

// Identical traffic for every engine built from the fixture: a few puts and
// gets per round from hosts that own a range, toward random guests.
void drive_kv(KvEngine& eng, std::uint64_t from_round, std::uint64_t to_round) {
  const auto& ids = eng.graph().ids();
  for (std::uint64_t r = from_round; r < to_round; ++r) {
    util::Rng rng(r * 7919 + 13);
    for (int k = 0; k < 4; ++k) {
      const NodeId client = ids[rng.next_below(ids.size())];
      if (eng.state(client).down) continue;
      KvMessage m;
      m.kind = rng.next_below(2) == 0 ? KvMessage::Kind::kPut
                                      : KvMessage::Kind::kGet;
      m.op_id = r * 8 + static_cast<std::uint64_t>(k) + 1;
      m.key = rng.next_below(64);
      m.value = "v" + std::to_string(m.key);
      m.target = rng.next_below(128);
      m.origin = client;
      m.reply_home = eng.state(client).lo;
      eng.state_mut(client).to_send.push_back(std::move(m));
    }
    eng.step_round();
  }
}

// A KV plane over the fixture with two hosts down, so routes exercise the
// router's fallback as well as its table.
std::unique_ptr<KvEngine> kv_plane() {
  auto eng = dht::make_kv_engine(fixture(), 7);
  const auto& ids = eng->graph().ids();
  for (const NodeId h : {ids[3], ids[11]}) eng->state_mut(h).down = true;
  eng->republish();
  return eng;
}

// A KV plane over the same hosts whose routing state differs (every host
// serves its predecessor's range) and which has already routed traffic, so
// its tables describe a state no checkpoint of kv_plane() holds.
std::unique_ptr<KvEngine> kv_plane_routed_elsewhere() {
  auto eng = dht::make_kv_engine(fixture(), 7);
  const auto& ids = eng->graph().ids();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const NodeId id : ids) {
    ranges.emplace_back(eng->state(id).lo, eng->state(id).hi);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto& st = eng->state_mut(ids[i]);
    std::tie(st.lo, st.hi) = ranges[(i + ids.size() - 1) % ids.size()];
  }
  drive_kv(*eng, 0, 12);
  std::size_t built = 0;
  for (const NodeId id : ids) built += eng->state(id).router.segments() > 0;
  CHS_CHECK(built > 0);
  return eng;
}

// Every host's table (as restored, built or not) answers like the scan over
// the host's current routing state, for every target.
template <typename Engine, typename State = typename Engine::NodeState>
void expect_tables_match_state(const Engine& eng) {
  const std::uint64_t n = eng.protocol().n_guests();
  const auto every_host = [](NodeId) { return true; };
  for (const NodeId id : eng.graph().ids()) {
    const State& st = eng.state(id);
    FingerRouter router = st.router;  // whatever table the state holds
    for (std::uint64_t t = 0; t < n; ++t) {
      const bool local = t >= st.lo && t < st.hi;
      ASSERT_EQ(router.next_hop(st.lo, st.hi, st.fwd, st.succ, t, n,
                                every_host),
                local ? kNoHop
                      : closest_preceding(st.fwd, st.hi, st.succ, t, n,
                                          every_host))
          << "host " << id << " t=" << t;
    }
  }
}

template <typename Engine>
std::vector<std::uint8_t> engine_blob(Engine& eng) {
  persist::Writer w(persist::BlobKind::kEngine);
  eng.checkpoint(w);
  return w.take();
}

TEST(FingerRouter, KvStateBytesCarryNoTable) {
  // A host that has routed (its table is built) serializes exactly as its
  // twelve persisted fields, written one after the other.
  auto eng = kv_plane();
  drive_kv(*eng, 0, 6);
  std::size_t checked = 0;
  for (const NodeId id : eng->graph().ids()) {
    const auto& st = eng->state(id);
    if (st.router.segments() == 0) continue;
    ++checked;
    persist::Writer got(persist::BlobKind::kRaw);
    got(st);
    persist::Writer want(persist::BlobKind::kRaw);
    want(st.lo);
    want(st.hi);
    want(st.fwd);
    want(st.succ);
    want(st.down);
    want(st.store);
    want(st.to_send);
    want(st.completed);
    want(st.served_puts);
    want(st.served_gets);
    want(st.dropped_ops);
    want(st.dropped_msgs);
    EXPECT_EQ(got.take(), want.take()) << "host " << id;
  }
  EXPECT_GT(checked, 0u);
}

TEST(FingerRouter, KvEngineBytesDoNotDependOnBuiltTables) {
  // The same engine state with every table built and with none built (a
  // fresh restore) checkpoints to the same bytes.
  auto eng = kv_plane();
  drive_kv(*eng, 0, 10);
  const auto bytes = engine_blob(*eng);
  auto restored = kv_plane_routed_elsewhere();
  ASSERT_TRUE(restored->restore_blob(bytes).ok);
  for (const NodeId id : restored->graph().ids()) {
    EXPECT_EQ(restored->state(id).router.segments(), 0u) << id;
  }
  EXPECT_EQ(engine_blob(*restored), bytes);
}

TEST(FingerRouter, KvRestoresRouteLikeANeverCheckpointedTwin) {
  auto twin = kv_plane();
  auto live = kv_plane();
  drive_kv(*twin, 0, 10);
  drive_kv(*live, 0, 10);
  const auto base = live->checkpoint_blob();
  drive_kv(*twin, 10, 20);
  drive_kv(*live, 10, 20);
  const auto delta = live->checkpoint_delta_blob();

  // Full path: restore the base into a plane that routed other state, then
  // carry the same traffic.
  auto full = kv_plane_routed_elsewhere();
  ASSERT_TRUE(full->restore_blob(base).ok);
  expect_tables_match_state(*full);
  drive_kv(*full, 10, 20);
  EXPECT_EQ(engine_blob(*full), engine_blob(*twin));
  expect_tables_match_state(*full);

  // Delta path: base then delta, then more traffic on both.
  auto chained = kv_plane_routed_elsewhere();
  ASSERT_TRUE(chained->restore_blob(base).ok);
  ASSERT_TRUE(chained->restore_delta_blob(delta).ok);
  expect_tables_match_state(*chained);
  drive_kv(*twin, 20, 30);
  drive_kv(*chained, 20, 30);
  EXPECT_EQ(engine_blob(*chained), engine_blob(*twin));
  expect_tables_match_state(*chained);
}

// Both planes' on_restore hook drops a table built from earlier state: copy
// a host that has routed, give the copy different routing state, run the
// hook, and the copy must route by its new state.
template <typename Engine>
void expect_on_restore_drops_tables(const Engine& eng) {
  const auto& ids = eng.graph().ids();
  const std::uint64_t n = eng.protocol().n_guests();
  const auto every_host = [](NodeId) { return true; };
  std::size_t checked = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (eng.state(ids[i]).router.segments() == 0) continue;
    ++checked;
    auto st = eng.state(ids[i]);
    st.succ = ids[(i + 2) % ids.size()];
    if (!st.fwd.empty()) st.fwd.pop_back();
    eng.protocol().on_restore(st);
    ASSERT_EQ(st.router.segments(), 0u);
    for (std::uint64_t t = 0; t < n; ++t) {
      const bool local = t >= st.lo && t < st.hi;
      ASSERT_EQ(st.router.next_hop(st.lo, st.hi, st.fwd, st.succ, t, n,
                                   every_host),
                local ? kNoHop
                      : closest_preceding(st.fwd, st.hi, st.succ, t, n,
                                          every_host))
          << "host " << ids[i] << " t=" << t;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FingerRouter, OnRestoreDropsTablesOfBothPlanes) {
  auto kv = kv_plane();
  drive_kv(*kv, 0, 10);
  expect_on_restore_drops_tables(*kv);
  auto lookup = make_lookup_engine(fixture(), 3);
  run_inband_lookups(*lookup, 40, 5, 200);
  expect_on_restore_drops_tables(*lookup);
}

}  // namespace
}  // namespace chs::routing
