#include "dht/kvstore.hpp"

#include <algorithm>

#include "stabilizer/state.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace chs::dht {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Per-attempt client timeout: a greedy route needs at most O(log N) host
// hops each way; 6(log N + 2) covers there-and-back with slack.
std::uint64_t attempt_budget(std::uint64_t n_guests) {
  return 6 * (static_cast<std::uint64_t>(util::ceil_log2(n_guests)) + 2);
}

// Hard per-message hop cap. Each hop forwards to the closest-preceding live
// neighbor (KvProtocol::step); when down hosts hold the fingers that would
// make progress, the best live one may overshoot the target, so a route can
// wander. It is dropped after this many hops and surfaces to the client as
// a timeout, which the client's replica retry covers.
std::uint32_t hop_cap(std::uint64_t n_guests) {
  return 4 * (util::ceil_log2(n_guests) + 2);
}

}  // namespace

std::uint64_t key_to_guest(std::uint64_t key, std::uint64_t n_guests) {
  CHS_CHECK(n_guests >= 1);
  return mix64(key * 0x9e3779b97f4a7c15ULL + 0x1357) % n_guests;
}

GuestId replica_guest(std::uint64_t key, std::uint32_t j,
                      std::uint32_t n_replicas, std::uint64_t n_guests) {
  CHS_CHECK(n_replicas >= 1 && j < n_replicas);
  const std::uint64_t stride = n_guests / n_replicas;
  return (key_to_guest(key, n_guests) + j * stride) % n_guests;
}

std::optional<KvProtocol::Message> KvProtocol::NodeState::take_completion(
    std::uint64_t op_id, Message::Kind kind) {
  for (auto it = completed.begin(); it != completed.end(); ++it) {
    if (it->op_id == op_id && it->kind == kind) {
      Message m = std::move(*it);
      completed.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

std::uint64_t KvProtocol::NodeState::live_bytes() const {
  const auto msg_bytes = [](const Message& m) {
    return sizeof(Message) + m.value.size();
  };
  std::uint64_t b = 0;
  for (const auto& [k, v] : store) b += sizeof(k) + sizeof(std::string) + v.size();
  for (const auto& m : to_send) b += msg_bytes(m);
  for (const auto& m : completed) b += msg_bytes(m);
  return b;
}

void KvProtocol::schedule_wakeups(Ctx&) const {
  // Purely message-driven: deliveries wake recipients and injections wake
  // their host via state_mut, so no timer wakeups are ever needed.
}

void KvProtocol::step(Ctx& ctx) {
  auto& st = ctx.state();
  if (st.down) {
    // A down host neither originates nor forwards. Account for everything it
    // swallows so availability numbers are attributable, not mysterious.
    st.dropped_ops += st.to_send.size();
    st.to_send.clear();
    st.dropped_msgs += ctx.inbox().size();
    schedule_wakeups(ctx);
    return;
  }

  // Closest-preceding finger among live neighbors (DESIGN.md D16): hosts
  // whose one-round-stale heartbeat says up.
  const auto is_live = [&](NodeId h) {
    const auto* view = ctx.view(h);  // null unless h is a neighbor
    return view != nullptr && !view->down;
  };

  const auto deliver_local = [&](const Message& m) {
    switch (m.kind) {
      case Message::Kind::kPut: {
        st.store[m.key] = m.value;
        ++st.served_puts;
        Message ack;
        ack.kind = Message::Kind::kPutAck;
        ack.op_id = m.op_id;
        ack.key = m.key;
        ack.target = m.reply_home;  // guest inside the client's range
        ack.origin = ctx.self();
        ack.hops = m.hops;
        return ack;
      }
      case Message::Kind::kGet: {
        ++st.served_gets;
        Message rep;
        rep.kind = Message::Kind::kGetReply;
        rep.op_id = m.op_id;
        rep.key = m.key;
        const auto it = st.store.find(m.key);
        rep.found = it != st.store.end();
        if (rep.found) rep.value = it->second;
        rep.target = m.reply_home;  // guest inside the client's range
        rep.origin = ctx.self();
        rep.hops = m.hops;
        return rep;
      }
      case Message::Kind::kPutAck:
      case Message::Kind::kGetReply:
        st.completed.push_back(m);
        return Message{};  // sentinel: nothing to route onward
    }
    return Message{};
  };

  const auto route = [&](Message m) {
    while (true) {
      if (m.target >= st.lo && m.target < st.hi) {
        Message reply = deliver_local(m);
        if (m.kind == Message::Kind::kPut || m.kind == Message::Kind::kGet) {
          m = std::move(reply);  // route the ack/reply from here
          continue;
        }
        return;  // ack/reply consumed by the client host
      }
      if (m.hops >= hop_cap(n_guests_)) return;  // wandered too long: drop
      const NodeId next = st.router.next_hop(st.lo, st.hi, st.fwd, st.succ,
                                             m.target, n_guests_, is_live);
      if (next == kNoneHost || next == ctx.self()) return;  // dead end: drop
      ++m.hops;
      ctx.send(next, std::move(m));
      return;
    }
  };

  for (Message& m : st.to_send) route(std::move(m));
  st.to_send.clear();
  for (const auto& env : ctx.inbox()) route(env.msg);
  schedule_wakeups(ctx);
}

std::unique_ptr<KvEngine> make_kv_engine(const core::StabEngine& src,
                                         std::uint64_t seed,
                                         std::uint32_t max_message_delay) {
  CHS_CHECK_MSG(core::is_converged(src),
                "the KV data plane requires a converged stabilizer engine");
  const std::uint64_t n = src.protocol().params().n_guests;
  graph::Graph g(src.graph().ids());
  for (const auto& [u, v] : src.graph().edge_list()) g.add_edge(u, v);
  auto eng = std::make_unique<KvEngine>(std::move(g), KvProtocol(n), seed);
  for (NodeId id : eng->graph().ids()) {
    const auto& from = src.state(id);
    auto& to = eng->state_mut(id);
    to.lo = from.lo;
    to.hi = from.hi;
    to.fwd = from.fwd_maps;
    to.succ =
        from.succ == stabilizer::kNone ? KvProtocol::kNoneHost : from.succ;
  }
  eng->set_max_message_delay(max_message_delay);
  eng->republish();
  return eng;
}

std::uint64_t total_drops(const KvEngine& eng) {
  std::uint64_t total = 0;
  for (NodeId id : eng.graph().ids()) {
    const auto& st = eng.state(id);
    total += st.dropped_ops + st.dropped_msgs;
  }
  return total;
}

KvCluster::KvCluster(const core::StabEngine& src, std::uint32_t n_replicas,
                     std::uint64_t seed, std::uint32_t max_message_delay)
    : n_replicas_(n_replicas), max_delay_(max_message_delay), rng_(seed) {
  CHS_CHECK(n_replicas >= 1);
  const std::uint64_t n = src.protocol().params().n_guests;
  CHS_CHECK_MSG(n_replicas <= n, "more replicas than ring positions");
  eng_ = make_kv_engine(src, seed, max_delay_);
}

NodeId KvCluster::pick_live_client() {
  // A client must own a non-empty range: replies are routed to a guest in
  // the client's range (reply_home), so a rangeless host cannot hear back.
  const auto usable = [&](NodeId h) {
    const auto& st = eng_->state(h);
    return !st.down && st.lo < st.hi;
  };
  const auto& ids = eng_->graph().ids();
  for (std::size_t attempt = 0; attempt < 4 * ids.size(); ++attempt) {
    const NodeId h = ids[rng_.next_below(ids.size())];
    if (usable(h)) return h;
  }
  for (NodeId h : ids) {
    if (usable(h)) return h;
  }
  CHS_CHECK_MSG(false, "every host is down");
  return KvProtocol::kNoneHost;
}

void KvCluster::purge_completions(NodeId client, std::uint64_t op) {
  auto& completed = eng_->state_mut(client).completed;
  if (completed.empty()) return;
  std::erase_if(completed, [op](const KvProtocol::Message& m) {
    return m.op_id <= op;
  });
}

KvStats KvCluster::stats() const {
  KvStats s = stats_;
  s.drops = total_drops(*eng_);
  return s;
}

template <typename Pred>
bool KvCluster::pump(Pred&& done, std::uint64_t budget) {
  for (std::uint64_t r = 0; r < budget; ++r) {
    if (done()) return true;
    eng_->step_round();
    ++stats_.rounds;
  }
  return done();
}

std::uint32_t KvCluster::put(std::uint64_t key, std::string value) {
  using Message = KvProtocol::Message;
  const std::uint64_t n = eng_->protocol().n_guests();
  std::uint32_t acked = 0;
  for (std::uint32_t j = 0; j < n_replicas_; ++j) {
    ++stats_.puts;
    // A failed attempt is retried once from a different entry host: a
    // different starting point usually yields a disjoint greedy route.
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      const NodeId client = pick_live_client();
      const std::uint64_t op = next_op_++;
      Message m;
      m.kind = Message::Kind::kPut;
      m.op_id = op;
      m.key = key;
      m.value = value;
      m.target = replica_guest(key, j, n_replicas_, n);
      m.origin = client;
      m.reply_home = eng_->state(client).lo;
      eng_->state_mut(client).to_send.push_back(std::move(m));
      ok = pump(
          [&] {
            auto c = eng_->state_mut(client).take_completion(
                op, Message::Kind::kPutAck);
            if (!c.has_value()) return false;
            stats_.max_hops = std::max(stats_.max_hops, c->hops);
            return true;
          },
          attempt_budget(n) * max_delay_);
      purge_completions(client, op);
    }
    if (ok) {
      ++acked;
      ++stats_.put_acks;
    }
  }
  return acked;
}

std::optional<std::string> KvCluster::get(std::uint64_t key) {
  using Message = KvProtocol::Message;
  const std::uint64_t n = eng_->protocol().n_guests();
  ++stats_.gets;
  for (std::uint32_t j = 0; j < n_replicas_; ++j) {
    if (j > 0) ++stats_.get_retries;
    // Two attempts per replica position from different entry hosts before
    // falling through to the next replica.
    for (int attempt = 0; attempt < 2; ++attempt) {
      const NodeId client = pick_live_client();
      const std::uint64_t op = next_op_++;
      Message m;
      m.kind = Message::Kind::kGet;
      m.op_id = op;
      m.key = key;
      m.target = replica_guest(key, j, n_replicas_, n);
      m.origin = client;
      m.reply_home = eng_->state(client).lo;
      eng_->state_mut(client).to_send.push_back(std::move(m));
      std::optional<std::string> result;
      bool answered = pump(
          [&] {
            auto c = eng_->state_mut(client).take_completion(
                op, Message::Kind::kGetReply);
            if (!c.has_value()) return false;
            if (c->found) result = std::move(c->value);
            stats_.max_hops = std::max(stats_.max_hops, c->hops);
            return true;
          },
          attempt_budget(n) * max_delay_);
      purge_completions(client, op);
      if (result.has_value()) {
        ++stats_.get_hits;
        return result;
      }
      // A definitive not-found from the responsible host ends this replica
      // position; a timeout warrants the second attempt.
      if (answered) break;
    }
  }
  return std::nullopt;
}

void KvCluster::fail_host(NodeId h) {
  eng_->state_mut(h).down = true;
  eng_->republish();
}

void KvCluster::recover_host(NodeId h) {
  eng_->state_mut(h).down = false;
  eng_->republish();
}

bool KvCluster::is_down(NodeId h) const { return eng_->state(h).down; }

std::vector<NodeId> KvCluster::holders(std::uint64_t key) const {
  std::vector<NodeId> out;
  for (NodeId id : eng_->graph().ids()) {
    if (eng_->state(id).store.count(key) != 0) out.push_back(id);
  }
  return out;
}

}  // namespace chs::dht
