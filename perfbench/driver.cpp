// End-to-end benchmark driver for the chordsim library.
//
// One process runs one workload for a fixed wall-clock budget and prints,
// as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. The line before it is a
// `{"report": ...}` object with every workload-specific figure, the output
// checks, a determinism fingerprint and a stamp of the build and host.
//
// Layers are timed from outside, around the calls into them: the
// campaign::JobRunner constructor, step(), checkpoint(), checkpoint_delta()
// and restore(), and verify::run_fuzz(). Engine phases come from the
// public JobRunner::set_profiler / sim::RoundProfile seam; deterministic
// counters from engine().metrics(), core::total_resets, JobResult, the
// series samples and OracleProbe::oracle().
//
// A run repeats a fixed set of *units*, each one campaign job (a fresh
// JobRunner with a seed derived from --seed) or one batch of fuzz cases,
// in a fixed number of passes. The first pass fixes every deterministic
// figure; later passes re-run the same units and only feed the timings.
//
//   chs_perfbench --workload cold_start --seed 1 --seconds 16 --trace 0

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "persist/io.hpp"
#include "sim/profile.hpp"
#include "util/log.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace chs;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the whole process (every thread), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The determinism fingerprint: persist::content_hash of `bytes`, in hex.
std::string hash_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    persist::content_hash(bytes.data(), bytes.size())));
  return buf;
}

// ---------------------------------------------------------------------------
// Host-speed correction.
//
// On a shared virtual machine the same work runs up to 1.7x slower for
// stretches of seconds to minutes: the host, not the process, slows down
// (no steal time, process CPU time equal to wall time). HostSpeed times a
// fixed piece of reference work — hashing into an open-addressing table,
// probing it, sorting — that is independent of the simulator and
// allocates nothing while timed. The driver samples it right before and
// right after every unit and scales the unit's times by
// kRefSeconds / (mean of the two samples): times are reported as seconds
// at the reference host's speed. A change to the simulator moves the
// scaled times exactly as it moves the raw ones; a slow stretch of the
// host moves the reference work too and mostly cancels.
class HostSpeed {
 public:
  // Median sample on the reference host (4-vCPU Xeon VM, 2.0 GHz).
  static constexpr double kRefSeconds = 0.3e-3;

  HostSpeed() : table_(kSlots), keys_(kKeys), buf_(kKeys) {
    util::Rng rng(0x5eed);
    for (std::uint64_t& k : keys_) k = rng.next_u64() | 1;
  }

  // Seconds the reference work takes now: the median of five timings, so a
  // single interrupt does not set a unit's correction.
  double sample() {
    double t[5];
    for (double& x : t) x = once();
    std::sort(t, t + 5);
    return t[2];
  }

 private:
  static constexpr std::size_t kSlots = 1u << 14;
  static constexpr std::size_t kKeys = 4096;

  double once() {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    std::fill(table_.begin(), table_.end(), 0);
    for (std::uint64_t k : keys_) *slot(k) = k;
    // Probe stored keys and, as the running count dictates, absent ones
    // (stored keys are odd; flipping bit 1 keeps them odd but unknown).
    for (std::uint64_t k : keys_) acc += *slot(k ^ (acc & 2)) != 0;
    std::copy(keys_.begin(), keys_.end(), buf_.begin());
    std::sort(buf_.begin(), buf_.end());
    sink_ = acc + buf_[acc % kKeys];
    return seconds_between(t0, Clock::now());
  }

  // Linear probing: the slot holding `k`, or the empty slot where it goes.
  std::uint64_t* slot(std::uint64_t k) {
    std::size_t h = (k * 0x9e3779b97f4a7c15ULL) >> 50;
    while (table_[h] != 0 && table_[h] != k) h = (h + 1) & (kSlots - 1);
    return &table_[h];
  }

  std::vector<std::uint64_t> table_, keys_, buf_;
  volatile std::uint64_t sink_ = 0;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t unit) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + unit);
  return 1 + rng.next_below(1ULL << 40);
}

// ---------------------------------------------------------------------------
// Spans (traced runs only): kept in memory, written out at exit.

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the span list, -1 = root
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  std::int32_t begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), -1, cur_});
    cur_ = static_cast<std::int32_t>(spans_.size() - 1);
    return cur_;
  }
  void end(std::int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = now_ns();
    cur_ = spans_[idx].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t mark() const { return spans_.size(); }

  // Self time per span name over spans [from, end): duration minus the part
  // covered by child spans.
  std::map<std::string, double> self_seconds(std::size_t from) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - child[i]);
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << s.start_ns / 1000.0 << ", \"dur\": "
        << (s.end_ns - s.start_ns) / 1000.0 << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::int32_t cur_ = -1;
};

// Times a call into a layer: a wall-clock lap always, a span when traced.
class Timed {
 public:
  Timed(Tracer& tr, const char* name)
      : tr_(tr), idx_(tr.begin(name)), t0_(Clock::now()) {}
  double stop() {
    const double s = seconds_between(t0_, Clock::now());
    tr_.end(idx_);
    idx_ = -1;
    return s;
  }
  ~Timed() { tr_.end(idx_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer& tr_;
  std::int32_t idx_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kColdStart, kServeZipf, kChurnOracle, kFuzzGuided };

// One engine thread for every workload. At these sizes a round's work is a
// few tens of microseconds, so a second worker spends it handing shards
// over and its wall time follows the host's scheduler, not the simulator.
constexpr std::size_t kEngineWorkers = 1;

struct Workload {
  Kind kind = Kind::kColdStart;
  std::string name;
  campaign::Scenario sc;
  graph::Family family = graph::Family::kRandomTree;
  std::size_t hosts = 0;
  bool oracle = false;
  std::uint64_t ckpt_every = 0;     // timeline rounds between snapshots
  std::uint64_t fuzz_budget = 0;    // cases per fuzz unit
  std::uint64_t setup_batch = 0;    // fuzz: grammar jobs per setup sample
  std::size_t det_units = 1;        // units that fix deterministic figures
  double pass_s = 1.0;              // seconds allowed per pass over them
};

std::optional<Workload> make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  campaign::Scenario& sc = w.sc;
  sc.name = "perfbench-" + name;
  sc.max_rounds = 400000;
  if (name == "cold_start") {
    // The paper's headline path: stabilize from an arbitrary tree.
    w.kind = Kind::kColdStart;
    w.hosts = tiny ? 32 : 128;
    w.det_units = 20;
    w.pass_s = 8.0;
    sc.start = campaign::StartMode::kCold;
  } else if (name == "serve_zipf") {
    // Open-loop KV traffic over a converged network, one lossy stretch.
    w.kind = Kind::kServeZipf;
    w.hosts = tiny ? 24 : 128;
    w.det_units = 4;
    w.pass_s = 5.0;
    const std::uint64_t window = tiny ? 60 : 500;
    sc.serve(0, window, tiny ? 8 : 128);
    sc.workload.keys = tiny ? 256 : 16384;
    sc.workload.zipf = 0.99;
    sc.workload.put_fraction = 0.2;
    sc.workload.replicas = 3;
    sc.workload.prefill = sc.workload.keys;
    sc.loss(window / 4, window / 2, 0.1);
    sc.series(16, 256);
  } else if (name == "churn_oracle") {
    // Detect/reset/recover under churn, loss and a partition heal, with the
    // oracle at stride 1 and periodic full + delta checkpoints.
    w.kind = Kind::kChurnOracle;
    w.hosts = tiny ? 16 : 64;
    w.oracle = true;
    w.det_units = 16;
    w.pass_s = 8.0;
    const std::uint64_t gap = tiny ? 200 : 600;
    w.ckpt_every = tiny ? 50 : 200;
    sc.churn_at(0, 1).churn_at(gap, 2).churn_at(2 * gap, 4);
    sc.loss(gap / 2, gap, 0.2);
    sc.partition(2 * gap + gap / 2, 2 * gap + gap / 2 + gap / 4);
  } else if (name == "fuzz_guided") {
    // Coverage-guided fuzzing: many tiny jobs, fixed costs dominate.
    w.kind = Kind::kFuzzGuided;
    // Batches of two cases, a grammar draw and a mutation of it: guided
    // cases mutate earlier ones of their batch, so per-batch cost grows
    // heavier-tailed with the batch size.
    w.fuzz_budget = 2;
    w.setup_batch = tiny ? 4 : 256;
    w.det_units = tiny ? 8 : 256;
    w.pass_s = 8.0;
  } else {
    return std::nullopt;
  }
  if (w.kind != Kind::kFuzzGuided) {
    sc.n_guests = 4 * w.hosts;
    sc.host_counts = {w.hosts};
    sc.families = {w.family};
  }
  return w;
}

// ---------------------------------------------------------------------------
// One unit's measurements.

struct PersistStats {
  std::vector<double> full_s, delta_s, restore_s;
  std::vector<double> full_bytes, delta_bytes;
};

struct UnitResult {
  bool ok = true;
  std::string why;               // first failed check
  std::uint64_t attempted = 0;   // checked operations in this unit
  std::uint64_t failed = 0;
  double setup_s = 0.0;          // ctor + setup stabilization
  double ctor_s = 0.0;
  double wall_s = 0.0;           // measured phase
  double cpu_s = 0.0;            // process CPU time of the measured phase
  double peak_rss_mb = 0.0;      // process peak resident set during the unit
  double scale = 1.0;            // host-speed correction (see HostSpeed)
  std::uint64_t rounds = 0;      // simulated rounds in the measured phase
  std::string fingerprint;
  std::map<std::string, double> figures;  // workload-specific report figures
  // Traced units only.
  sim::RoundProfile prof;        // timeline rounds only
  std::vector<double> step_us;   // timeline step() wall times
  double step_total_s = 0.0;
  PersistStats persist;
  std::map<std::string, double> span_self;  // self seconds per span name
};

// Failed checks overlap (an unconverged job also fails its invariants), so
// a unit's failed count is the largest any one check reports.
void fail(UnitResult& u, const std::string& why, std::uint64_t count = 1) {
  if (u.ok) u.why = why;
  u.ok = false;
  u.failed = std::max(u.failed, count);
}

std::vector<std::uint8_t> snapshot(campaign::JobRunner& jr, bool full) {
  persist::Writer w(full ? persist::BlobKind::kJob : persist::BlobKind::kJobDelta);
  if (full) {
    jr.checkpoint(w);
  } else {
    jr.checkpoint_delta(w);
  }
  return w.take();
}

// Fingerprint of everything deterministic a job produced: its JSON report
// (the program's own serializer of every deterministic JobResult field)
// plus the per-round degree trace, which the report leaves out.
std::string job_fingerprint(const campaign::Scenario& sc,
                            const campaign::JobResult& r) {
  std::string bytes = campaign::make_report(sc, {r}).to_json();
  for (std::size_t d : r.degree_trace) {
    bytes.append(reinterpret_cast<const char*>(&d), sizeof d);
  }
  return hash_hex(bytes);
}

// `check_restore`: run churn_oracle's restore check. It is deterministic,
// so it runs in the first pass only.
UnitResult run_job_unit(const Workload& w, std::uint64_t job_seed,
                        bool check_restore, Tracer& tr) {
  UnitResult u;
  campaign::JobSpec spec;
  spec.family = w.family;
  spec.n_hosts = w.hosts;
  spec.seed = job_seed;
  const bool traced = tr.on();
  const std::int32_t unit_span = tr.begin("unit");

  std::unique_ptr<verify::OracleProbe> probe;
  if (w.oracle) probe = std::make_unique<verify::OracleProbe>();

  const auto t_setup = Clock::now();
  std::optional<campaign::JobRunner> jr;
  {
    Timed t(tr, "job.ctor");
    jr.emplace(w.sc, spec, kEngineWorkers, probe.get());
    u.ctor_s = t.stop();
  }
  sim::RoundProfile prof;
  if (traced) jr->set_profiler(&prof);
  {
    Timed t(tr, "job.setup");
    while (!jr->in_timeline() && !jr->finished()) {
      Timed s(tr, "job.step");
      jr->step();
    }
  }
  u.setup_s = seconds_between(t_setup, Clock::now());
  const sim::RoundProfile setup_prof = prof;
  const std::uint64_t stepped0 = jr->engine().metrics().nodes_stepped();

  // Measured phase: the timeline, with periodic snapshots on churn_oracle.
  std::vector<std::uint8_t> base;
  std::vector<std::vector<std::uint8_t>> deltas;
  std::uint64_t delta_total = 0;
  const auto take_snapshot = [&] {
    // Chain policy of the campaign runner: deltas until the chain holds 8
    // or outweighs half its base, then a fresh full snapshot.
    const bool full =
        base.empty() || deltas.size() >= 8 || delta_total > base.size() / 2;
    Timed t(tr, full ? "persist.full" : "persist.delta");
    std::vector<std::uint8_t> blob = snapshot(*jr, full);
    const double s = t.stop();
    if (full) {
      u.persist.full_s.push_back(s);
      u.persist.full_bytes.push_back(static_cast<double>(blob.size()));
      base = std::move(blob);
      deltas.clear();
      delta_total = 0;
    } else {
      u.persist.delta_s.push_back(s);
      u.persist.delta_bytes.push_back(static_cast<double>(blob.size()));
      delta_total += blob.size();
      deltas.push_back(std::move(blob));
    }
  };
  const auto t_wall = Clock::now();
  const double cpu0 = process_cpu_s();
  std::uint64_t last_snap = 0;
  while (!jr->finished()) {
    bool more = false;
    {
      Timed s(tr, "job.step");
      more = jr->step();
      const double dt = s.stop();
      if (traced) {
        u.step_us.push_back(1e6 * dt);
        u.step_total_s += dt;
      }
    }
    if (!more) break;
    if (w.ckpt_every > 0 && jr->timeline_round() >= last_snap + w.ckpt_every) {
      last_snap = jr->timeline_round();
      take_snapshot();
    }
  }
  u.wall_s = seconds_between(t_wall, Clock::now());
  u.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t i = 0; i < sim::kRoundPhases; ++i) {
    u.prof.ns[i] = prof.ns[i] - setup_prof.ns[i];
  }
  u.prof.rounds = prof.rounds - setup_prof.rounds;

  core::StabEngine& eng = jr->engine();
  const sim::RunMetrics& m = eng.metrics();
  auto& f = u.figures;
  f["sim.nodes_stepped"] = static_cast<double>(m.nodes_stepped());
  f["sim.timeline_stepped"] = static_cast<double>(m.nodes_stepped() - stepped0);
  f["sim.snapshots_published"] = static_cast<double>(m.snapshots_published());
  f["sim.round_actions"] = static_cast<double>(m.round_actions());
  f["sim.peak_pending_events"] = static_cast<double>(m.peak_pending_events());
  f["sim.engine_rounds"] = static_cast<double>(m.rounds());
  f["stabilizer.resets"] = static_cast<double>(core::total_resets(eng));
  f["stabilizer.edge_adds"] = static_cast<double>(m.edge_adds());
  f["stabilizer.edge_dels"] = static_cast<double>(m.edge_dels());
  f["stabilizer.stale_cert_drops"] = static_cast<double>(m.stale_cert_drops());
  f["stabilizer.messages_dropped"] = static_cast<double>(m.messages_dropped());
  if (probe && probe->oracle()) {
    const verify::InvariantOracle& o = *probe->oracle();
    f["verify.oracle_rounds_checked"] = static_cast<double>(o.rounds_checked());
    f["verify.oracle_hosts_checked"] = static_cast<double>(o.hosts_checked());
    f["verify.connectivity_rebuilds"] =
        static_cast<double>(o.connectivity_rebuilds());
  }

  // Output checks that need the live engine.
  if (w.kind == Kind::kColdStart) {
    u.attempted = 1;
    if (!core::is_converged(eng)) fail(u, "cold_start: not converged");
    const std::string inv = core::check_invariants(eng);
    if (!inv.empty()) fail(u, "cold_start: invariant " + inv);
  }

  // churn_oracle: restore the last chain into a fresh runner and resume it
  // to the end; it must serialize to the same bytes, and report the same
  // result, as the uninterrupted runner. (The comparison is made at the end
  // because a snapshot of the original at the chain's last point would
  // itself become the engine's chain head and change the chain.)
  bool restore_ok = true;
  std::string resumed_fp;
  if (w.ckpt_every > 0 && check_restore) {
    const std::vector<std::uint8_t> want = snapshot(*jr, true);
    std::unique_ptr<verify::OracleProbe> probe2;
    if (w.oracle) probe2 = std::make_unique<verify::OracleProbe>();
    campaign::JobRunner fresh(w.sc, spec, kEngineWorkers, probe2.get());
    persist::Status s = persist::Status::failure("no snapshot was taken");
    {
      Timed t(tr, "persist.restore");
      if (!base.empty()) {
        persist::Reader r(base);
        s = r.expect_header(persist::BlobKind::kJob);
        if (s.ok) s = fresh.restore(r);
        if (s.ok) s = r.expect_end();
      }
      for (const auto& d : deltas) {
        if (!s.ok) break;
        persist::Reader dr(d);
        s = dr.expect_header(persist::BlobKind::kJobDelta);
        if (s.ok) s = fresh.restore_delta(dr);
        if (s.ok) s = dr.expect_end();
      }
      u.persist.restore_s.push_back(t.stop());
    }
    if (s.ok) {
      Timed t(tr, "job.resume");
      fresh.run();
    }
    restore_ok = s.ok && fresh.finished() && snapshot(fresh, true) == want;
    if (restore_ok) resumed_fp = job_fingerprint(w.sc, fresh.result());
  }

  const campaign::JobResult r = jr->result();
  u.rounds = r.rounds;
  u.fingerprint = job_fingerprint(w.sc, r);
  f["rounds"] = static_cast<double>(r.rounds);
  f["messages"] = static_cast<double>(r.messages);
  f["peak_degree"] = static_cast<double>(r.peak_degree);
  f["degree_expansion"] = r.degree_expansion;
  f["setup_rounds"] = static_cast<double>(r.setup_rounds);
  if (!r.setup_converged) fail(u, "setup did not converge");

  if (w.kind == Kind::kServeZipf) {
    const campaign::WorkloadSpec& ws = w.sc.workload;
    const std::uint64_t want_issued = ws.rate * (ws.end - ws.begin);
    u.attempted = r.wl_issued;
    if (r.wl_issued != want_issued) {
      fail(u, "serve_zipf: issued " + std::to_string(r.wl_issued) +
                  " != rate x window " + std::to_string(want_issued),
           r.wl_issued);
    }
    if (r.wl_completed + r.wl_timeouts != r.wl_issued) {
      const std::uint64_t settled = r.wl_completed + r.wl_timeouts;
      fail(u, "serve_zipf: issued != completed + timeouts",
           settled > r.wl_issued ? settled - r.wl_issued
                                 : r.wl_issued - settled);
    }
    std::uint64_t kv_messages = 0;
    for (const auto& s : r.series) kv_messages += s.kv_messages;
    const double settled = static_cast<double>(r.wl_completed + r.wl_timeouts);
    f["dht.issued"] = static_cast<double>(r.wl_issued);
    f["dht.completed"] = static_cast<double>(r.wl_completed);
    f["dht.timeouts"] = static_cast<double>(r.wl_timeouts);
    f["dht.retries"] = static_cast<double>(r.wl_retries);
    f["dht.retry_share"] = ratio(r.wl_retries, r.wl_issued);
    f["dht.hits"] = static_cast<double>(r.wl_hits);
    f["dht.drops"] = static_cast<double>(r.wl_drops);
    f["dht.peak_inflight"] = static_cast<double>(r.wl_peak_inflight);
    f["dht.kv_messages"] = static_cast<double>(kv_messages);
    f["dht.msgs_per_op"] = ratio(kv_messages, r.wl_completed);
    f["kv_p50_rounds"] = static_cast<double>(r.wl_p50);
    f["kv_p99_rounds"] = static_cast<double>(r.wl_p99);
    f["availability"] = settled == 0 ? 1.0 : r.wl_completed / settled;
    f["kv_timeouts"] = static_cast<double>(r.wl_timeouts);
    f["obs.series_samples"] = static_cast<double>(r.series.size());
  }
  if (w.kind == Kind::kChurnOracle) {
    u.attempted = r.events.size();
    std::uint64_t unrecovered = 0, recovery_max = 0;
    for (const auto& e : r.events) {
      if (!e.recovered) ++unrecovered;
      recovery_max = std::max(recovery_max, e.recovery_rounds);
    }
    if (unrecovered) fail(u, "churn_oracle: unrecovered events", unrecovered);
    if (!r.oracle_violation.empty()) {
      fail(u, "churn_oracle: oracle violation " + r.oracle_violation);
    }
    if (check_restore && (!restore_ok || resumed_fp != u.fingerprint)) {
      fail(u, "churn_oracle: runner restored from the last chain diverged");
    }
    if (r.events.size() != w.sc.events.size()) {
      fail(u, "churn_oracle: events not all applied");
    }
    f["recovery_rounds_max"] = static_cast<double>(recovery_max);
    f["unrecovered_events"] = static_cast<double>(unrecovered);
  }
  if (!r.converged) fail(u, "job ended unconverged");
  tr.end(unit_span);
  return u;
}

// fuzz_guided's set-up samples. run_fuzz builds its jobs internally, out of
// the driver's reach, so the driver times a stand-in: a batch of jobs drawn
// from the fuzz grammar, each built as run_fuzz builds it (an OracleProbe
// with a flight recorder, the JobRunner constructor, the recorder attached,
// then setup stabilization). One sample per pass: the batch's mean set-up,
// raw (`raw`) and corrected for host speed (the return value).
std::vector<double> fuzz_setup_samples(const Workload& w, std::uint64_t seed,
                                       HostSpeed& hs, std::vector<double>& raw) {
  std::vector<double> out;
  for (int pass = 0; pass < 3; ++pass) {
    util::Rng rng(derive_seed(seed, 1u << 20));
    double total = 0.0, total_raw = 0.0;
    for (std::uint64_t i = 0; i < w.setup_batch; ++i) {
      const campaign::Scenario sc = verify::generate_scenario(i, rng);
      const campaign::JobSpec spec = campaign::expand_jobs(sc).front();
      const double k0 = hs.sample();
      const auto t0 = Clock::now();
      {
        obs::FlightRecorder flight;
        verify::OracleProbe probe;
        probe.set_flight(&flight);
        campaign::JobRunner jr(sc, spec, 1, &probe);
        jr.set_flight(&flight);
        while (!jr.in_timeline() && !jr.finished()) jr.step();
      }
      const double t = seconds_between(t0, Clock::now());
      total_raw += t;
      total += t * 2 * HostSpeed::kRefSeconds / (k0 + hs.sample());
    }
    raw.push_back(total_raw / static_cast<double>(w.setup_batch));
    out.push_back(total / static_cast<double>(w.setup_batch));
  }
  return out;
}

UnitResult run_fuzz_unit(const Workload& w, std::uint64_t fuzz_seed,
                         Tracer& tr) {
  UnitResult u;
  const std::int32_t unit_span = tr.begin("unit");
  verify::FuzzOptions opt;
  opt.seed = fuzz_seed;
  opt.budget = w.fuzz_budget;
  opt.guided = true;
  const double cpu0 = process_cpu_s();
  Timed t(tr, "verify.run_fuzz");
  const verify::FuzzReport rep = verify::run_fuzz(opt);
  u.wall_s = t.stop();
  u.cpu_s = process_cpu_s() - cpu0;
  u.attempted = rep.cases;
  if (!rep.failures.empty()) {
    fail(u, "fuzz_guided: failing case " +
                std::to_string(rep.failures.front().case_index) + ": " +
                rep.failures.front().detail,
         rep.failures.size());
  }
  u.fingerprint = hash_hex(rep.to_text());
  // run_fuzz reports no round count; the rounds its oracle evaluated stand
  // in for it (stride 1, 2 or 4 per case, drawn deterministically).
  u.rounds = rep.oracle_rounds_checked;
  auto& f = u.figures;
  f["rounds"] = static_cast<double>(u.rounds);
  f["coverage_classes"] = static_cast<double>(rep.coverage_classes);
  f["verify.fuzz_jobs"] = static_cast<double>(rep.jobs);
  f["verify.fuzz_events"] = static_cast<double>(rep.events);
  f["verify.corpus_size"] = static_cast<double>(rep.corpus.size());
  f["verify.oracle_rounds_checked"] =
      static_cast<double>(rep.oracle_rounds_checked);
  f["failing_cases"] = static_cast<double>(rep.failures.size());
  tr.end(unit_span);
  return u;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string num_list(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + quote(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

// Peak resident set of the process in MB: VmHWM from /proc/self/status,
// which reset_peak_rss() lowers to the current resident set (Linux
// clear_refs "5"), so a unit's peak is measured alone rather than being
// the largest of every unit run so far. The reset first returns free heap
// pages to the system, so the resident set a unit starts from does not
// depend on which units ran before it. Falls back to getrusage's lifetime
// peak where /proc is not available.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "tiny" && v != "full") return false;
      a.tiny = v == "tiny";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "chs_perfbench: refusing to report timings from an "
               "unoptimised build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: chs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--trace-out PATH] "
                 "[--commit ID]\n");
    return 2;
  }
  const std::optional<Workload> wl = make_workload(args.workload, args.tiny);
  if (!wl) {
    std::fprintf(stderr, "chs_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  util::set_log_level(util::LogLevel::kError);

  Tracer tracer(args.trace);
  Tracer off(false);
  const auto t_run = Clock::now();
  const auto elapsed = [&] { return seconds_between(t_run, Clock::now()); };

  // Every unit runs exactly `passes` times, a number fixed by --seconds and
  // the workload's pass allowance, never by how fast the host happens to
  // be: each unit's timing is then the mean of the same number of samples,
  // each corrected for host speed, in every run and on every build.
  const std::size_t passes = static_cast<std::size_t>(
      std::max(1.0, std::floor(args.seconds / w.pass_s)));
  // One set-up sample per pass, the mean set-up of a unit: corrected for
  // host speed and raw.
  HostSpeed hs;
  std::vector<double> setup_samples, setup_raw;
  if (w.kind == Kind::kFuzzGuided) {
    setup_samples = fuzz_setup_samples(w, args.seed, hs, setup_raw);
  }
  std::vector<std::vector<UnitResult>> runs(passes);  // [pass][unit], untraced
  std::vector<UnitResult> traced;  // traced twins of pass 0
  const auto run_unit = [&](std::uint64_t idx, bool first_pass, Tracer& tr) {
    const std::uint64_t s = derive_seed(args.seed, idx);
    return w.kind == Kind::kFuzzGuided ? run_fuzz_unit(w, s, tr)
                                       : run_job_unit(w, s, first_pass, tr);
  };
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < w.det_units; ++i) {
      const double k0 = hs.sample();
      reset_peak_rss();
      runs[p].push_back(run_unit(i, p == 0, off));
      UnitResult& u = runs[p].back();
      u.peak_rss_mb = peak_rss_mb();
      u.scale = 2 * HostSpeed::kRefSeconds / (k0 + hs.sample());
      if (args.trace && p == 0) {
        const std::size_t mark = tracer.mark();
        traced.push_back(run_unit(i, true, tracer));
        traced.back().span_self = tracer.self_seconds(mark);
      }
    }
  }
  const std::vector<UnitResult>& units = runs[0];

  // ---- aggregate
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string why;
  const auto flag = [&](const std::string& what) {
    if (correct) why = what;
    correct = false;
  };
  const double inf = std::numeric_limits<double>::infinity();
  // Per unit, means over passes: mean_wall corrected for host speed,
  // mean_raw and mean_cpu not. best_rss is the smallest peak.
  const double n_passes = static_cast<double>(passes);
  std::vector<double> mean_wall(w.det_units, 0.0), mean_raw(w.det_units, 0.0),
      mean_cpu(w.det_units, 0.0), best_rss(w.det_units, inf),
      pass_s(passes, 0.0), scales;
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < w.det_units; ++i) {
      const UnitResult& u = runs[p][i];
      attempted += u.attempted;
      failed += u.failed;
      if (!u.ok) flag(u.why);
      if (u.fingerprint != units[i].fingerprint) flag("a repeated unit diverged");
      mean_wall[i] += u.wall_s * u.scale / n_passes;
      mean_raw[i] += u.wall_s / n_passes;
      scales.push_back(u.scale);
      mean_cpu[i] += u.cpu_s / n_passes;
      best_rss[i] = std::min(best_rss[i], u.peak_rss_mb);
      pass_s[p] += u.wall_s;
    }
    if (w.kind != Kind::kFuzzGuided) {
      double setup = 0.0, raw = 0.0;
      for (const UnitResult& u : runs[p]) {
        setup += u.setup_s * u.scale;
        raw += u.setup_s;
      }
      setup_samples.push_back(setup / static_cast<double>(w.det_units));
      setup_raw.push_back(raw / static_cast<double>(w.det_units));
    }
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].fingerprint != units[i].fingerprint) {
      flag("a traced unit diverged from its untraced twin");
    }
  }
  // Timing and work are means over the units: fuzz units differ widely in
  // cost (cold or converged start, 4 to 12 hosts, with or without traffic),
  // and a median over such a mix jumps between modes from seed to seed.
  std::string fp_bytes;
  double wall_sum = 0.0, raw_sum = 0.0, cpu_sum = 0.0, work_sum = 0.0,
         rounds_sum = 0.0;
  for (std::size_t i = 0; i < w.det_units; ++i) {
    const UnitResult& u = units[i];
    fp_bytes += u.fingerprint;
    // Work completed: KV ops on serve_zipf, cases on fuzz_guided.
    work_sum += w.kind == Kind::kServeZipf ? u.figures.at("dht.completed")
                                           : static_cast<double>(u.attempted);
    rounds_sum += static_cast<double>(u.rounds);
    wall_sum += mean_wall[i];
    raw_sum += mean_raw[i];
    cpu_sum += mean_cpu[i];
  }
  const double n_units = static_cast<double>(w.det_units);

  // Workload-specific report figures: deterministic ones from unit 0..det.
  std::map<std::string, double> det;
  for (const auto& kv : units[0].figures) {
    std::vector<double> v;
    for (std::size_t i = 0; i < w.det_units; ++i) v.push_back(units[i].figures.at(kv.first));
    det[kv.first] = median(v);
  }
  std::map<std::string, double> rep;
  rep["setup_s"] = median(setup_samples);
  rep["setup_raw_s"] = median(setup_raw);
  rep["wall_s"] = wall_sum / n_units;
  rep["wall_raw_s"] = raw_sum / n_units;
  rep["cpu_s"] = cpu_sum / n_units;
  rep["host_speed"] = median(scales);
  rep["rounds"] = rounds_sum / n_units;
  rep["round_us"] = ratio(1e6 * wall_sum, rounds_sum);
  rep["peak_rss_mb"] = median(best_rss);
  rep["passes"] = static_cast<double>(passes);
  std::uint64_t failed_issue = failed;
  switch (w.kind) {
    case Kind::kColdStart:
      for (const char* k : {"messages", "peak_degree", "degree_expansion"}) {
        rep[k] = det[k];
      }
      break;
    case Kind::kServeZipf: {
      rep["ops_per_s"] = ratio(work_sum, wall_sum);
      for (const char* k : {"kv_p50_rounds", "kv_p99_rounds", "availability"}) {
        rep[k] = det[k];
      }
      // fail_share counts KV timeouts: ops the service failed to answer.
      for (const auto& pass : runs) {
        for (const UnitResult& u : pass) failed_issue += u.figures.at("kv_timeouts");
      }
      break;
    }
    case Kind::kChurnOracle:
      for (const char* k : {"messages", "peak_degree", "recovery_rounds_max"}) {
        rep[k] = det[k];
      }
      break;
    case Kind::kFuzzGuided:
      rep["cases_per_s"] = ratio(work_sum, wall_sum);
      rep["coverage_classes"] = det["coverage_classes"];
      break;
  }
  rep["fail_share"] = ratio(failed_issue, attempted);

  std::vector<Metric> out;
  if (!args.trace) {
    out = {
        {"setup_s", rep["setup_s"], "s"},
        {"round_us", rep["round_us"], "us"},
        {"rounds", rep["rounds"], "count"},
        {"peak_rss_mb", rep["peak_rss_mb"], "MB"},
    };
  } else {
    // Per-layer figures: times are medians over traced units, counts come
    // from the deterministic units (identical in every run of a seed).
    const auto med = [&](auto&& of) {
      std::vector<double> v;
      for (std::size_t i = 0; i < traced.size(); ++i) v.push_back(of(traced[i], units[i]));
      return median(v);
    };
    const auto phase = [](const UnitResult& t, sim::RoundPhase p) {
      return 1e-9 * static_cast<double>(t.prof.ns[static_cast<std::size_t>(p)]);
    };
    const auto fig = [](const UnitResult& t, const char* name) {
      const auto it = t.figures.find(name);
      return it == t.figures.end() ? 0.0 : it->second;
    };
    const auto span_self = [](const UnitResult& t, const char* name) {
      const auto it = t.span_self.find(name);
      return it == t.span_self.end() ? 0.0 : it->second;
    };
    const auto ckpt_s = [](const UnitResult& t) {
      double s = 0;
      for (double x : t.persist.full_s) s += x;
      for (double x : t.persist.delta_s) s += x;
      return s;
    };
    std::vector<double> step_us, full_ms, delta_ms, restore_ms, full_b, delta_b;
    for (const UnitResult& t : traced) {
      step_us.insert(step_us.end(), t.step_us.begin(), t.step_us.end());
      for (double s : t.persist.full_s) full_ms.push_back(1e3 * s);
      for (double s : t.persist.delta_s) delta_ms.push_back(1e3 * s);
      for (double s : t.persist.restore_s) restore_ms.push_back(1e3 * s);
      full_b.insert(full_b.end(), t.persist.full_bytes.begin(), t.persist.full_bytes.end());
      delta_b.insert(delta_b.end(), t.persist.delta_bytes.begin(), t.persist.delta_bytes.end());
    }
    const auto d = [&](const char* k) {
      const auto it = det.find(k);
      return it == det.end() ? 0.0 : it->second;
    };
    using P = sim::RoundPhase;
    using U = const UnitResult&;
    out = {
        {"job.ctor_s", med([](U t, U) { return t.ctor_s; }), "s"},
        {"job.setup_stabilize_s", med([](U t, U) { return t.setup_s - t.ctor_s; }), "s"},
        {"job.step_p50_us", quantile(step_us, 0.5), "us"},
        {"job.step_p99_us", quantile(step_us, 0.99), "us"},
        {"job.step_samples", static_cast<double>(step_us.size()), "count"},
        {"job.self_s",
         med([](U t, U) { return t.step_total_s - 1e-9 * static_cast<double>(t.prof.total_ns()); }),
         "s"},
        {"sim.scan_s", med([&](U t, U) { return phase(t, P::kScan); }), "s"},
        {"sim.step_s", med([&](U t, U) { return phase(t, P::kStep); }), "s"},
        {"sim.apply_s", med([&](U t, U) { return phase(t, P::kApply); }), "s"},
        {"sim.publish_s", med([&](U t, U) { return phase(t, P::kPublish); }), "s"},
        {"sim.observer_s", med([&](U t, U) { return phase(t, P::kObserver); }), "s"},
        {"sim.nodes_stepped", d("sim.nodes_stepped"), "count"},
        {"sim.active_share",
         ratio(d("sim.nodes_stepped"), d("sim.engine_rounds") * w.hosts), "share"},
        {"sim.snapshots_published", d("sim.snapshots_published"), "count"},
        {"sim.round_actions", d("sim.round_actions"), "count"},
        {"sim.peak_pending_events", d("sim.peak_pending_events"), "count"},
        {"stabilizer.step_ns_per_host",
         med([&](U t, U) {
           return ratio(1e9 * phase(t, P::kStep), fig(t, "sim.timeline_stepped"));
         }),
         "ns"},
        {"stabilizer.resets", d("stabilizer.resets"), "count"},
        {"stabilizer.edge_adds", d("stabilizer.edge_adds"), "count"},
        {"stabilizer.edge_dels", d("stabilizer.edge_dels"), "count"},
        {"stabilizer.stale_cert_drops", d("stabilizer.stale_cert_drops"), "count"},
        {"stabilizer.messages_dropped", d("stabilizer.messages_dropped"), "count"},
        {"dht.issued", d("dht.issued"), "count"},
        {"dht.completed", d("dht.completed"), "count"},
        {"dht.timeouts", d("dht.timeouts"), "count"},
        {"dht.retries", d("dht.retries"), "count"},
        {"dht.retry_share", d("dht.retry_share"), "share"},
        {"dht.hits", d("dht.hits"), "count"},
        {"dht.drops", d("dht.drops"), "count"},
        {"dht.peak_inflight", d("dht.peak_inflight"), "count"},
        {"dht.kv_messages", d("dht.kv_messages"), "count"},
        {"dht.msgs_per_op", d("dht.msgs_per_op"), "count"},
        {"verify.oracle_rounds_checked", d("verify.oracle_rounds_checked"), "count"},
        {"verify.oracle_hosts_checked", d("verify.oracle_hosts_checked"), "count"},
        {"verify.hosts_per_round",
         ratio(d("verify.oracle_hosts_checked"), d("verify.oracle_rounds_checked")), "count"},
        {"verify.connectivity_rebuilds", d("verify.connectivity_rebuilds"), "count"},
        {"verify.fuzz_jobs", d("verify.fuzz_jobs"), "count"},
        {"verify.fuzz_events", d("verify.fuzz_events"), "count"},
        {"verify.corpus_size", d("verify.corpus_size"), "count"},
        {"verify.jobs_per_s",
         med([&](U t, U) {
           return ratio(fig(t, "verify.fuzz_jobs"), span_self(t, "verify.run_fuzz"));
         }),
         "1/s"},
        {"verify.fuzz_s", med([&](U t, U) { return span_self(t, "verify.run_fuzz"); }), "s"},
        {"persist.full_ms", median(full_ms), "ms"},
        {"persist.full_bytes", median(full_b), "bytes"},
        {"persist.delta_ms", median(delta_ms), "ms"},
        {"persist.delta_bytes", median(delta_b), "bytes"},
        {"persist.restore_ms", median(restore_ms), "ms"},
        {"persist.ckpt_share", med([&](U t, U) { return ratio(ckpt_s(t), t.wall_s); }), "share"},
        {"persist.self_s",
         med([&](U t, U) {
           return span_self(t, "persist.full") + span_self(t, "persist.delta") +
                  span_self(t, "persist.restore");
         }),
         "s"},
        {"obs.series_samples", d("obs.series_samples"), "count"},
        {"bench.self_s", med([&](U t, U) { return span_self(t, "unit"); }), "s"},
        {"trace.overhead_s", med([](U t, U u) { return t.wall_s - u.wall_s; }), "s"},
        {"trace.overhead_share",
         med([](U t, U u) { return ratio(t.wall_s - u.wall_s, u.wall_s); }), "share"},
        {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
    };
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::fprintf(stderr, "chs_perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  // ---- report line: figures, checks, fingerprint, stamp.
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::string report = "{\"report\": {\"workload\": " + quote(w.name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"size\": " + quote(args.tiny ? "tiny" : "full") +
                       ", \"hosts\": " + std::to_string(w.hosts) +
                       ", \"fingerprint\": " + quote(hash_hex(fp_bytes)) +
                       ", \"check\": " + quote(correct ? "ok" : why) +
                       ", \"pass_s\": [" + num_list(pass_s) + "]" +
                       ", \"figures\": {";
  bool first = true;
  for (const auto& [k, v] : rep) {
    report += (first ? "" : ", ") + quote(k) + ": " + num(v);
    first = false;
  }
  report += "}, \"stamp\": {\"commit\": " + quote(args.commit) +
            ", \"build_type\": " + quote(CHS_BENCH_BUILD_TYPE) +
            ", \"compiler\": " + quote(CHS_BENCH_COMPILER) +
            ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"engine_workers\": " + std::to_string(kEngineWorkers) +
            ", \"loadavg\": [" + num(load[0]) + ", " + num(load[1]) + ", " +
            num(load[2]) + "], \"elapsed_s\": " + num(elapsed()) + "}}}";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(out).c_str());
  return 0;
}
