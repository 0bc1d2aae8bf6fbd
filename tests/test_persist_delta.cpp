// Incremental checkpoints (DESIGN.md D10).
//
// The correctness criterion extends D9's replay equivalence to chains: a
// fresh engine restored from base + deltas must checkpoint to EXACTLY the
// bytes a full snapshot of the original produces — at any worker count —
// and keep producing bit-identical rounds afterwards. Chain misuse (a delta
// applied out of order, against the wrong base, or corrupted in the middle)
// must fail loudly and leave the engine untouched; silence here would be a
// quietly-wrong resume. The size payoff is pinned too: on a mostly
// quiescent network a delta is a small fraction of the full blob.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "core/churn.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "persist/fields.hpp"
#include "persist/io.hpp"
#include "util/log.hpp"

namespace chs {
namespace {

using campaign::Scenario;
using core::StabEngine;

std::unique_ptr<StabEngine> tree_engine(std::size_t hosts = 12,
                                        std::uint64_t guests = 64,
                                        std::uint64_t seed = 3,
                                        std::uint32_t delay = 1) {
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(seed);
  auto ids = graph::sample_ids(hosts, guests, rng);
  core::Params p;
  p.n_guests = guests;
  p.delay_slack = delay;
  auto eng = core::make_engine(
      graph::make_family(graph::Family::kRandomTree, ids, rng), p, seed);
  if (delay > 1) eng->set_max_message_delay(delay);
  return eng;
}

/// Canonical full snapshot via the raw Writer path: does NOT touch the
/// engine's chain head, so it can probe state equality mid-chain.
std::vector<std::uint8_t> engine_blob(StabEngine& eng) {
  persist::Writer w(persist::BlobKind::kEngine);
  eng.checkpoint(w);
  return w.take();
}

/// One base + two deltas with real activity in every gap, plus the full
/// blob of the final state as the equivalence reference.
struct Chain {
  std::vector<std::uint8_t> base, d1, d2, final_full;
};

Chain make_chain(std::size_t workers) {
  auto eng = tree_engine(16, 64, 5, /*delay=*/2);
  if (workers > 1) eng->set_worker_threads(workers);
  for (int r = 0; r < 20; ++r) eng->step_round();  // mid-stabilization
  Chain c;
  c.base = eng->checkpoint_blob();
  for (int r = 0; r < 15; ++r) eng->step_round();
  c.d1 = eng->checkpoint_delta_blob();
  for (int r = 0; r < 15; ++r) eng->step_round();
  c.d2 = eng->checkpoint_delta_blob();
  c.final_full = engine_blob(*eng);
  return c;
}

TEST(DeltaCheckpoint, BasePlusDeltasRestoresByteIdenticalToFull) {
  const Chain want = make_chain(1);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    // The blobs themselves are worker-count independent: the delta's
    // touched set is sorted and its contents deterministic (D6).
    const Chain c = make_chain(workers);
    EXPECT_EQ(c.base, want.base) << workers << " workers";
    EXPECT_EQ(c.d1, want.d1) << workers << " workers";
    EXPECT_EQ(c.d2, want.d2) << workers << " workers";

    auto fresh = tree_engine(16, 64, 5, /*delay=*/2);
    ASSERT_TRUE(fresh->restore_blob(c.base).ok);
    ASSERT_TRUE(fresh->restore_delta_blob(c.d1).ok);
    ASSERT_TRUE(fresh->restore_delta_blob(c.d2).ok);
    EXPECT_EQ(engine_blob(*fresh), c.final_full)
        << "base+deltas diverged from the full snapshot at " << workers
        << " workers";
  }
}

TEST(DeltaCheckpoint, RestoredChainKeepsSteppingBitIdentically) {
  // Equal bytes at restore time could still hide a stale derived cache;
  // running both engines onward pins behavioral equivalence too.
  const Chain c = make_chain(1);
  auto full = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(full->restore_blob(c.final_full).ok);
  auto chained = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(chained->restore_blob(c.base).ok);
  ASSERT_TRUE(chained->restore_delta_blob(c.d1).ok);
  ASSERT_TRUE(chained->restore_delta_blob(c.d2).ok);
  for (int r = 0; r < 30; ++r) {
    full->step_round();
    chained->step_round();
  }
  EXPECT_EQ(engine_blob(*chained), engine_blob(*full));
}

TEST(DeltaCheckpoint, FullAndDeltaRestoresRebuildTheNeighborIndex) {
  // The neighbor-slot index (DESIGN.md D15) never reaches a blob; both
  // restore paths must rebuild it to exactly what the live engine holds.
  auto eng = tree_engine(16, 64, 5, /*delay=*/2);
  for (int r = 0; r < 20; ++r) eng->step_round();
  const auto base = eng->checkpoint_blob();
  // The delta must carry a topology change for its graph path to run.
  const auto edges = [&] {
    return eng->metrics().edge_adds() + eng->metrics().edge_dels();
  };
  const auto edges0 = edges();
  for (int r = 0; r < 5000 && edges() == edges0; ++r) eng->step_round();
  ASSERT_GT(edges(), edges0);
  const auto delta = eng->checkpoint_delta_blob();

  const auto expect_same_graph = [&](const graph::Graph& got,
                                     const graph::Graph& want) {
    EXPECT_TRUE(got.indices_consistent());
    EXPECT_TRUE(got.same_topology(want));
    for (graph::NodeIndex i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.neighbor_indices(i), want.neighbor_indices(i));
    }
  };
  auto full = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(full->restore_blob(engine_blob(*eng)).ok);
  expect_same_graph(full->graph(), eng->graph());
  auto chained = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(chained->restore_blob(base).ok);
  ASSERT_TRUE(chained->graph().indices_consistent());
  ASSERT_TRUE(chained->restore_delta_blob(delta).ok);
  expect_same_graph(chained->graph(), eng->graph());
}

TEST(DeltaCheckpoint, QuiescentDeltaIsSmallFractionOfFullBlob) {
  // Converge 300 hosts, then idle in active-set mode: the delta covers
  // the handful of nodes that woke, not the network. The payoff is an
  // active-set property — in StepMode::kAll every node steps (and draws
  // RNG) every round, so every node genuinely belongs in the delta.
  auto eng = tree_engine(300, 4096, 7);
  eng->metrics().set_trace_recording(false);
  while (!core::is_converged(*eng)) eng->step_round();
  eng->set_step_mode(sim::StepMode::kActiveSet);
  // Settle until a provably idle round: post-convergence the wakeup
  // schedule runs periodic re-verification waves, and a base taken at a
  // fixed round count is phase-sensitive — a semantics change that shifts
  // convergence by a round or two can land the delta window on a wave.
  // After an idle round the exponential re-check backoff guarantees the
  // next few rounds wake at most a handful of nodes.
  for (int r = 0; r < 4096; ++r) {
    const auto before = eng->metrics().nodes_stepped();
    eng->step_round();
    if (eng->metrics().nodes_stepped() == before) break;
  }
  const auto base = eng->checkpoint_blob();
  for (int r = 0; r < 5; ++r) eng->step_round();
  const auto delta = eng->checkpoint_delta_blob();
  const auto full = engine_blob(*eng);
  EXPECT_LT(delta.size() * 5, full.size())
      << "delta " << delta.size() << "B vs full " << full.size() << "B";

  // Now a real repair — wipe one host and let the detector wave run. No
  // size claim here (the wave legitimately touches much of the network);
  // the chain must still restore byte-identically through the busy delta.
  core::wipe_host_state(*eng, eng->graph().ids().front());
  for (int r = 0; r < 5; ++r) eng->step_round();
  const auto delta2 = eng->checkpoint_delta_blob();
  const auto full2 = engine_blob(*eng);
  auto fresh = tree_engine(300, 4096, 7);
  ASSERT_TRUE(fresh->restore_blob(base).ok);
  ASSERT_TRUE(fresh->restore_delta_blob(delta).ok);
  ASSERT_TRUE(fresh->restore_delta_blob(delta2).ok);
  EXPECT_EQ(engine_blob(*fresh), full2);
}

TEST(DeltaCheckpoint, OutOfOrderDeltaFailsLoudlyWithoutMutation) {
  const Chain c = make_chain(1);
  auto eng = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(eng->restore_blob(c.base).ok);
  const auto before = engine_blob(*eng);

  // d2's parent is d1, not the base: the content-hash check must refuse.
  const auto s = eng->restore_delta_blob(c.d2);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("parent hash"), std::string::npos) << s.error;
  EXPECT_EQ(engine_blob(*eng), before) << "failed delta mutated the engine";

  // The chain head survived the refusal: the RIGHT delta still applies.
  ASSERT_TRUE(eng->restore_delta_blob(c.d1).ok);
  ASSERT_TRUE(eng->restore_delta_blob(c.d2).ok);
  EXPECT_EQ(engine_blob(*eng), c.final_full);
}

TEST(DeltaCheckpoint, WrongBaseFailsLoudly) {
  const Chain c = make_chain(1);
  // Same topology recipe, different seed: a plausible-looking wrong base.
  auto eng = tree_engine(16, 64, 6, 2);
  const auto own = eng->checkpoint_blob();
  const auto before = engine_blob(*eng);
  const auto s = eng->restore_delta_blob(c.d1);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("parent hash"), std::string::npos) << s.error;
  EXPECT_EQ(engine_blob(*eng), before);
  (void)own;
}

TEST(DeltaCheckpoint, DeltaWithoutBaseFailsLoudly) {
  const Chain c = make_chain(1);
  auto eng = tree_engine(16, 64, 5, 2);  // never checkpointed or restored
  const auto before = engine_blob(*eng);
  const auto s = eng->restore_delta_blob(c.d1);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("base"), std::string::npos) << s.error;
  EXPECT_EQ(engine_blob(*eng), before);
}

TEST(DeltaCheckpoint, CorruptMidChainBlobFailsLoudlyWithoutMutation) {
  const Chain c = make_chain(1);
  auto eng = tree_engine(16, 64, 5, 2);
  ASSERT_TRUE(eng->restore_blob(c.base).ok);
  const auto before = engine_blob(*eng);

  // Flip one payload byte past the header/section framing: the section
  // CRC must catch it before anything is applied.
  auto bad = c.d1;
  bad[bad.size() / 2] ^= 0x40;
  const auto s = eng->restore_delta_blob(bad);
  ASSERT_FALSE(s.ok);
  EXPECT_EQ(engine_blob(*eng), before) << "corrupt delta mutated the engine";

  // The pristine delta still applies afterwards.
  ASSERT_TRUE(eng->restore_delta_blob(c.d1).ok);
}

TEST(DeltaCheckpoint, DescribePrintsDeltaKindAndSections) {
  const Chain c = make_chain(1);
  const std::string d = persist::describe(c.d1);
  EXPECT_NE(d.find("engine-delta"), std::string::npos) << d;
  for (const char* tag : {"DHDR", "DENG", "DTOP", "DCAL", "DMAI", "DNOD",
                          "DMET", "DPRO"}) {
    EXPECT_NE(d.find(tag), std::string::npos) << d;
  }
  EXPECT_EQ(d.find("MISMATCH"), std::string::npos) << d;
}

TEST(DeltaCheckpoint, BytesPerHostIsRecordedOnDemandOnly) {
  auto eng = tree_engine(32, 256, 3);
  for (int r = 0; r < 10; ++r) eng->step_round();
  EXPECT_EQ(eng->metrics().bytes_per_host(), 0u);  // never sampled
  eng->record_live_bytes();
  const auto bph = eng->metrics().bytes_per_host();
  EXPECT_GT(bph, 0u);
  // Sanity band: a 32-host engine's per-host footprint is KBs, not MBs.
  EXPECT_LT(bph, 10u * 1024 * 1024);
}

// --- campaign-level delta chains ---------------------------------------------

std::string report_bytes(const campaign::CampaignReport& rep) {
  return rep.to_json();
}

TEST(CampaignDeltaChain, MidJobSnapshotsAreDeltasAndResumeIsByteIdentical) {
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "persist-delta-campaign";
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.delay = 2;
  sc.max_rounds = 100000;
  sc.churn_at(0, 2);
  sc.loss(0, 40, 0.3);
  ASSERT_EQ(sc.validate(), "");

  const campaign::CampaignReport want = campaign::run_campaign(sc, {});

  const std::string path =
      testing::TempDir() + "/chs_delta_campaign.ckpt";
  campaign::RunOptions halt_opts;
  halt_opts.checkpoint_path = path;
  halt_opts.checkpoint_every = 10;
  halt_opts.halt_after_checkpoints = 4;  // base + >=1 delta, then halt
  const auto halted = campaign::run_campaign(sc, halt_opts);
  EXPECT_TRUE(halted.halted);

  // The on-disk in-progress slot is a genuine chain: full base + deltas.
  std::vector<campaign::JobCheckpoint> slots;
  ASSERT_TRUE(campaign::read_campaign_checkpoint(path, sc, slots).ok);
  ASSERT_EQ(slots.size(), 1u);
  ASSERT_EQ(slots[0].state, campaign::JobCheckpoint::State::kInProgress);
  // Size payoff on a BUSY 10-host job is not pinned here (nearly every
  // node is touched every window) — QuiescentDeltaIsSmallFractionOfFullBlob
  // covers it; this test pins the chain mechanics end to end.
  ASSERT_FALSE(slots[0].deltas.empty());

  campaign::RunOptions resume_opts;
  resume_opts.resume_path = path;
  const auto resumed = campaign::run_campaign(sc, resume_opts);
  EXPECT_EQ(report_bytes(resumed), report_bytes(want))
      << "resume through a delta chain diverged from the clean run";
}

}  // namespace
}  // namespace chs
