#include "dht/workload.hpp"

#include <algorithm>
#include <cmath>

#include "persist/fields.hpp"
#include "stabilizer/state.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace chs::dht {
namespace {

// Stream salts: the driver's draws must be independent of the control
// plane's adversary streams (campaign/runner.cpp) and of each other, and
// must not shift when other features toggle.
constexpr std::uint64_t kKvEngineSalt = 0x6b76656e67696e65ULL;   // "kvengine"
constexpr std::uint64_t kWorkloadSalt = 0x776f726b6c6f6164ULL;   // "workload"
constexpr std::uint64_t kKvLossSalt = 0x6b766c6f737373ULL;       // "kvloss"

// Mirrors the per-attempt client budget in kvstore.cpp: a greedy route is
// O(log N) host hops each way, 6(log N + 2) covers there-and-back with
// slack.
std::uint64_t auto_timeout(std::uint64_t n_guests, std::uint32_t max_delay) {
  return 6 *
         (static_cast<std::uint64_t>(util::ceil_log2(n_guests)) + 2) *
         max_delay;
}

std::string value_for(std::uint64_t key) {
  return "v" + std::to_string(key);
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  CHS_CHECK(n >= 1);
  if (s_ <= 0.0 || n_ <= 1) return;
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n_) + 0.5);
  threshold_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -s_));
}

double ZipfSampler::h(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::h_inv(double u) const {
  if (s_ == 1.0) return std::exp(u);
  return std::pow(1.0 + u * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::operator()(util::Rng& rng) const {
  if (s_ <= 0.0 || n_ <= 1) return rng.next_below(n_);
  while (true) {
    const double u = h_n_ + rng.next_double() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    const double kd = static_cast<double>(k);
    if (kd - x <= threshold_ || u >= h(kd + 0.5) - std::pow(kd, -s_)) {
      return k - 1;  // ranks are 0-based
    }
  }
}

WorkloadDriver::WorkloadDriver(const core::StabEngine& src,
                               const WorkloadConfig& cfg,
                               std::uint64_t job_seed, std::uint32_t max_delay)
    : cfg_(cfg),
      max_delay_(max_delay),
      kv_(make_kv_engine(src, job_seed ^ kKvEngineSalt, max_delay)),
      zipf_(cfg.keys, cfg.zipf),
      rng_(job_seed ^ kWorkloadSalt),
      loss_rng_(job_seed ^ kKvLossSalt),
      lat_hist_(obs::kLatBuckets, 0) {
  CHS_CHECK(cfg_.rate >= 1 && cfg_.replicas >= 1);
  const auto& ids = kv_->graph().ids();
  for (NodeId id : ids) {
    const auto& st = kv_->state(id);
    if (st.lo < st.hi) range_index_.emplace_back(st.lo, id);
  }
  std::sort(range_index_.begin(), range_index_.end());
  CHS_CHECK_MSG(!range_index_.empty(), "no host owns any guest range");
  const std::uint64_t n = kv_->protocol().n_guests();
  for (std::uint64_t key = 0; key < cfg_.prefill; ++key) {
    for (std::uint32_t j = 0; j < cfg_.replicas; ++j) {
      const GuestId g = replica_guest(key, j, cfg_.replicas, n);
      auto it = std::upper_bound(range_index_.begin(), range_index_.end(),
                                 std::make_pair(g, ~std::uint64_t{0}));
      CHS_CHECK(it != range_index_.begin());
      kv_->state_mut(std::prev(it)->second).store[key] = value_for(key);
    }
  }
  rebuild_serving_from_kv();
}

WorkloadDriver::WorkloadDriver(const std::vector<NodeId>& ids,
                               std::uint64_t n_guests,
                               const WorkloadConfig& cfg,
                               std::uint32_t max_delay)
    : cfg_(cfg),
      max_delay_(max_delay),
      kv_(std::make_unique<KvEngine>(graph::Graph(ids), KvProtocol(n_guests),
                                     /*seed=*/0)),
      zipf_(cfg.keys, cfg.zipf),
      rng_(0),
      loss_rng_(0),
      lat_hist_(obs::kLatBuckets, 0) {
  // Everything dynamic — RNG streams, op counter, in-flight table, engine
  // state — arrives via persist_fields / restore_engine / finish_restore.
}

persist::Status WorkloadDriver::restore_engine(
    const std::vector<std::uint8_t>& blob) {
  return kv_->restore_blob(blob);
}

void WorkloadDriver::finish_restore() {
  const auto& ids = kv_->graph().ids();
  range_index_.clear();
  for (NodeId id : ids) {
    const auto& st = kv_->state(id);
    if (st.lo < st.hi) range_index_.emplace_back(st.lo, id);
  }
  std::sort(range_index_.begin(), range_index_.end());
  ring_.clear();
  // Ordered-map iteration rebuilds each deadline bucket in ascending op-id
  // order — exactly the order the live run pushed them (retries re-issued at
  // round t precede that round's fresh, higher-id injections).
  for (const auto& [op_id, op] : inflight_) {
    ring_[op.deadline].push_back(op_id);
  }
  rebuild_serving_from_kv();
}

void WorkloadDriver::rebuild_serving_from_kv() {
  // The data plane's down flags are the authoritative mirror of the control
  // plane's phases (refresh_serving keeps them so); rebuilding from them
  // makes cold start and restore converge on identical caches.
  const auto& ids = kv_->graph().ids();
  serving_.assign(ids.size(), 0);
  serving_ids_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& st = kv_->state(ids[i]);
    serving_[i] = st.down ? 0 : 1;
    if (!st.down && st.lo < st.hi) serving_ids_.push_back(ids[i]);
  }
}

void WorkloadDriver::refresh_serving(const core::StabEngine& src) {
  // One-round-stale heartbeat semantics: a host serves client traffic iff
  // its control-plane phase was DONE after the stabilizer round that just
  // executed. Re-stabilizing hosts (churned, wiped, retargeted) drop out of
  // the client pool and are marked down on the data plane, which routes
  // around them and attributes the losses.
  const auto& ids = kv_->graph().ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool done =
        src.state(ids[i]).phase == stabilizer::Phase::kDone;
    if ((serving_[i] != 0) == done) continue;
    serving_[i] = done ? 1 : 0;
    auto& st = kv_->state_mut(ids[i]);
    st.down = !done;
    if (st.lo < st.hi) {
      auto it = std::lower_bound(serving_ids_.begin(), serving_ids_.end(),
                                 ids[i]);
      if (done) {
        serving_ids_.insert(it, ids[i]);
      } else if (it != serving_ids_.end() && *it == ids[i]) {
        serving_ids_.erase(it);
      }
    }
  }
}

std::uint64_t WorkloadDriver::attempt_timeout() const {
  return cfg_.timeout > 0
             ? cfg_.timeout
             : auto_timeout(kv_->protocol().n_guests(), max_delay_);
}

void WorkloadDriver::issue_attempt(std::uint64_t op_id, InFlightOp& op,
                                   std::uint64_t t) {
  using Message = KvProtocol::Message;
  const std::uint64_t n = kv_->protocol().n_guests();
  auto& client = kv_->state_mut(op.client);
  const GuestId home = client.lo;
  const auto push = [&](GuestId target, Message::Kind kind) {
    Message m;
    m.kind = kind;
    m.op_id = op_id;
    m.key = op.key;
    if (kind == Message::Kind::kPut) m.value = value_for(op.key);
    m.target = target;
    m.origin = op.client;
    m.reply_home = home;
    client.to_send.push_back(std::move(m));
  };
  if (op.kind == 1) {
    for (std::uint32_t j = 0; j < cfg_.replicas; ++j) {
      push(replica_guest(op.key, j, cfg_.replicas, n), Message::Kind::kPut);
    }
    op.acks_pending = cfg_.replicas;
  } else {
    push(replica_guest(op.key, op.attempt, cfg_.replicas, n),
         Message::Kind::kGet);
  }
  op.deadline = t + attempt_timeout();
  ring_[op.deadline].push_back(op_id);
}

void WorkloadDriver::expire(std::uint64_t t) {
  const auto bucket = ring_.find(t);
  if (bucket == ring_.end()) return;
  for (std::uint64_t op_id : bucket->second) {
    const auto it = inflight_.find(op_id);
    if (it == inflight_.end() || it->second.deadline != t) continue;
    InFlightOp& op = it->second;
    if (op.kind == 0 && op.attempt + 1 < cfg_.replicas &&
        !serving_ids_.empty()) {
      // Replica failover: retry the get against the next spaced ring
      // position from a fresh entry host. Latency keeps accruing from the
      // first issue — an SLO clock does not reset on retry.
      ++op.attempt;
      ++totals_.retries;
      op.client = serving_ids_[rng_.next_below(serving_ids_.size())];
      issue_attempt(op_id, op, t);
      continue;
    }
    ++totals_.timeouts;
    inflight_.erase(it);
  }
  ring_.erase(bucket);
}

void WorkloadDriver::inject(std::uint64_t t) {
  if (t < cfg_.begin || t >= cfg_.end) return;
  for (std::uint64_t i = 0; i < cfg_.rate; ++i) {
    const std::uint64_t key = zipf_(rng_);
    const bool is_put = rng_.next_double() < cfg_.put_fraction;
    ++totals_.issued;
    if (serving_ids_.empty()) {
      // Nobody can accept the op — an immediate, attributable timeout.
      ++totals_.timeouts;
      continue;
    }
    const std::uint64_t op_id = next_op_++;
    InFlightOp op;
    op.kind = is_put ? 1 : 0;
    op.key = key;
    op.client = serving_ids_[rng_.next_below(serving_ids_.size())];
    op.issued_at = t;
    issue_attempt(op_id, op, t);
    inflight_.emplace(op_id, op);
  }
  totals_.peak_inflight =
      std::max(totals_.peak_inflight,
               static_cast<std::uint64_t>(inflight_.size()));
}

void WorkloadDriver::drain(std::uint64_t t) {
  // Scan every host: completions can land on a client that has since
  // retired (a late reply to a retried get), and leaving those would regrow
  // the unbounded completion log the facade fix removed.
  using Message = KvProtocol::Message;
  for (NodeId id : kv_->graph().ids()) {
    if (kv_->state(id).completed.empty()) continue;
    auto& mut = kv_->state_mut(id);
    const std::vector<Message> msgs = std::move(mut.completed);
    mut.completed.clear();
    for (const Message& m : msgs) {
      const auto it = inflight_.find(m.op_id);
      if (it == inflight_.end()) continue;  // late answer to a settled op
      InFlightOp& op = it->second;
      if (op.kind == 1) {
        if (m.kind != Message::Kind::kPutAck) continue;
        if (--op.acks_pending > 0) continue;
      } else if (m.kind != Message::Kind::kGetReply) {
        continue;
      } else if (m.found) {
        ++totals_.hits;
      }
      ++totals_.completed;
      ++lat_hist_[obs::lat_bucket(t - op.issued_at)];
      inflight_.erase(it);
    }
  }
}

void WorkloadDriver::on_timeline_round(std::uint64_t t,
                                       const core::StabEngine& src) {
  refresh_serving(src);
  expire(t);
  inject(t);
  kv_->step_round();
  drain(t);
}

void WorkloadDriver::fill_cursor(obs::SeriesCursor& c) const {
  c.ops_issued = totals_.issued;
  c.ops_completed = totals_.completed;
  c.ops_timeout = totals_.timeouts;
  c.ops_retried = totals_.retries;
  c.kv_messages = kv_->metrics().messages();
  c.lat_hist = lat_hist_;
}

}  // namespace chs::dht
