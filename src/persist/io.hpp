// Versioned, CRC-checked binary serialization for checkpoint/resume
// (DESIGN.md D9).
//
// A *blob* is: a fixed header (magic, format version, blob kind) followed by
// a sequence of *sections*, each `tag u32 | length u64 | payload | crc32`.
// The CRC covers the payload, so a flipped bit, a truncated file, or a
// payload written by a different layout fails loudly at open_section — never
// silently resumes a half-read state. The format is host-endian and
// host-width (one build reads its own checkpoints; cross-platform exchange
// is out of scope and guarded by the magic/version pair).
//
// Values serialize through a pair of archives with one shared traversal:
//
//   persist::Writer w(BlobKind::kEngine);
//   w.begin_section(persist::tag4("ENGN"));
//   w(round); w(states); w(rng);          // same calls the Reader makes
//   w.end_section();
//
// The generic `archive` dispatch handles arithmetic types, enums, strings,
// vectors, pairs, maps, sets, optionals, and variants structurally; any
// other type must provide either a member `persist_fields(A&)` or a free
// `persist_fields(A&, T&)` found by ADL (see persist/fields.hpp for the
// protocol/campaign/verify overloads). One function per type serves both
// directions, so write and read layouts cannot drift apart.
//
// Readers never throw and never abort on malformed input: the first failure
// latches (`ok()` goes false with a message) and every subsequent read is a
// no-op leaving defaults, so callers check one Status at the end. Restoring
// code should call validate_sections() up front to reject corrupt blobs
// before mutating any live state.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace chs::persist {

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) over `len` bytes.
std::uint32_t crc32(const void* data, std::size_t len);

/// 64-bit FNV-1a content hash. Used to chain incremental checkpoints: every
/// engine delta blob records the hash of the blob it extends (base or prior
/// delta), so a delta applied out of order — or against the wrong base —
/// fails loudly instead of silently merging divergent states. Not a CRC
/// replacement: sections keep their CRCs for corruption detection; the
/// content hash is an identity, not an integrity, check.
std::uint64_t content_hash(const void* data, std::size_t len);

inline std::uint64_t content_hash(const std::vector<std::uint8_t>& bytes) {
  return content_hash(bytes.data(), bytes.size());
}

/// Outcome of a restore/validate/load operation. Loud by construction: the
/// error string names what failed (bad magic, CRC mismatch, stale scenario).
struct Status {
  bool ok = true;
  std::string error;

  static Status failure(std::string msg) { return {false, std::move(msg)}; }
  explicit operator bool() const { return ok; }
};

/// What a blob snapshots; part of the header so `describe` and mismatched
/// loads (e.g. feeding a fuzz checkpoint to --resume of a campaign) fail
/// with a named kind instead of a section-tag soup.
enum class BlobKind : std::uint32_t {
  kEngine = 1,    // one sim::Engine's complete dynamic state
  kJob = 2,       // one campaign job mid-flight (engine blob + loop state)
  kCampaign = 3,  // a campaign: per-job done/in-progress/pending states
  kFuzz = 4,      // a fuzz run: completed-case prefix of the report
  kRaw = 5,       // free-form (tests)
  kEngineDelta = 6,  // engine sections touched since a base blob (chained)
  kJobDelta = 7,     // job loop state + one engine delta (campaign chains)
};

const char* blob_kind_name(BlobKind k);

// v2: engine-delta blob kind, RunMetrics bytes_per_host field, campaign
// checkpoint delta chains.
// v3: adversary bestiary (DESIGN.md D11) — scenario delay-model/domain/
// byzantine fields, scoped loss/partition windows, job-loop adversary state
// (rolling wipes, byzantine-window outcomes), oracle containment counter.
// v4: telemetry (DESIGN.md D12) — RunMetrics round_actions counter, scenario
// series knobs, JobResult series fields, job-blob OBSR series-recorder
// section.
// v5: serving layer (DESIGN.md D13) — scenario workload spec, JobResult
// workload totals, SeriesSample workload counters + latency histogram,
// job-blob WKLD (open-loop generator state) and KVDP (KV data-plane engine)
// sections.
// v6: coverage-guided fuzzing (DESIGN.md D14) — oracle code-path bitmask,
// fuzz-report coverage counters + feature set, fuzz-blob CORP section
// (corpus entries, scheduler state, corpus-directory binding).
inline constexpr std::uint32_t kFormatVersion = 6;

/// Section tag from a 4-char mnemonic: tag4("ENGN").
constexpr std::uint32_t tag4(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

namespace detail {
// "CHSCKPT1" little-endian.
inline constexpr std::uint64_t kMagic = 0x3154504b43534843ULL;
}  // namespace detail

class Writer {
 public:
  static constexpr bool kIsReader = false;

  explicit Writer(BlobKind kind);

  /// Open a section; all writes until end_section() land in its payload.
  /// Sections do not nest — embed a nested blob as a std::vector<uint8_t>.
  void begin_section(std::uint32_t tag);
  void end_section();  // patches the length and appends the payload CRC

  template <typename T>
  void operator()(const T& v);  // defined after archive()

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t len_at_ = 0;  // offset of the open section's length field
  bool in_section_ = false;
};

class Reader {
 public:
  static constexpr bool kIsReader = true;

  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& b)
      : Reader(b.data(), b.size()) {}

  /// Verify magic, format version, and blob kind; must be the first call.
  Status expect_header(BlobKind kind);

  /// Walk every section from the current position to the end of the blob,
  /// verifying framing and CRCs without consuming anything. Restore paths
  /// call this right after expect_header so corruption is rejected before
  /// any live state mutates.
  Status validate_sections() const;

  /// Enter the next section, verifying its tag and payload CRC.
  Status open_section(std::uint32_t tag);
  /// Leave the section; the payload must be fully consumed (a leftover is a
  /// layout mismatch, i.e. a stale blob that happened to pass its CRC).
  Status close_section();

  /// All bytes consumed? Trailing data means the blob and the reading code
  /// disagree about the format.
  Status expect_end() const;

  template <typename T>
  void operator()(T& v);  // defined after archive()

  void raw(void* p, std::size_t n) {
    if (!ok_) return;
    const std::size_t lim = in_section_ ? section_end_ : size_;
    if (n > lim - pos_) {
      fail("read past end of " +
           std::string(in_section_ ? "section" : "blob"));
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  void fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(msg);
    }
  }

  bool ok() const { return ok_; }
  Status status() const { return ok_ ? Status{} : Status::failure(error_); }
  /// Bytes left in the current section (or blob) — the count guard for
  /// containers: a corrupt length can never exceed it.
  std::size_t remaining() const {
    return (in_section_ ? section_end_ : size_) - pos_;
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
  bool ok_ = true;
  std::string error_;
};

// --- generic structural traversal ------------------------------------------

namespace detail {

template <typename>
inline constexpr bool dependent_false = false;

template <typename T>
struct is_vector : std::false_type {};
template <typename T, typename A>
struct is_vector<std::vector<T, A>> : std::true_type {};

template <typename T>
struct is_map : std::false_type {};
template <typename K, typename V, typename C, typename A>
struct is_map<std::map<K, V, C, A>> : std::true_type {};

template <typename T>
struct is_set : std::false_type {};
template <typename K, typename C, typename A>
struct is_set<std::set<K, C, A>> : std::true_type {};

template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct is_optional : std::false_type {};
template <typename T>
struct is_optional<std::optional<T>> : std::true_type {};

template <typename T>
struct is_variant : std::false_type {};
template <typename... Ts>
struct is_variant<std::variant<Ts...>> : std::true_type {};

}  // namespace detail

template <typename A, typename T>
void archive(A& a, T& v);

namespace detail {

/// Cap on the element count of a container of an empty type. Such elements
/// (a protocol's member-less PublicState) serialize to zero bytes, so the
/// bytes left cannot bound their count; per-host arrays are the largest
/// such containers, and 2^24 is 16x the largest engine benched (1M hosts).
inline constexpr std::uint64_t kMaxEmptyElements = std::uint64_t{1} << 24;

/// Element count for a container of T read: bounded by the bytes actually
/// left (by kMaxEmptyElements for an empty T), so a corrupt (or
/// adversarial) length cannot drive an allocation.
template <typename T, typename A>
std::uint64_t archive_count(A& a, std::uint64_t n) {
  std::uint64_t c = n;
  a.raw(&c, sizeof c);
  if constexpr (A::kIsReader) {
    const std::uint64_t bound =
        std::is_empty_v<T> ? kMaxEmptyElements : a.remaining();
    if (c > bound) {
      a.fail("container length exceeds blob size");
      return 0;
    }
  }
  return c;
}

template <std::size_t I, typename A, typename... Ts>
void variant_read_alternative(A& a, std::variant<Ts...>& v, std::uint32_t idx) {
  if constexpr (I < sizeof...(Ts)) {
    if (idx == I) {
      v.template emplace<I>();
      archive(a, std::get<I>(v));
    } else {
      variant_read_alternative<I + 1>(a, v, idx);
    }
  }
}

}  // namespace detail

template <typename A, typename T>
void archive(A& a, T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    a.raw(&v, sizeof v);
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> u{};
    if constexpr (!A::kIsReader) u = static_cast<std::underlying_type_t<T>>(v);
    a.raw(&u, sizeof u);
    if constexpr (A::kIsReader) v = static_cast<T>(u);
  } else if constexpr (std::is_same_v<T, std::string>) {
    std::uint64_t n = detail::archive_count<char>(a, v.size());
    if constexpr (A::kIsReader) v.resize(static_cast<std::size_t>(n));
    if (n != 0) a.raw(v.data(), static_cast<std::size_t>(n));
  } else if constexpr (detail::is_vector<T>::value) {
    std::uint64_t n =
        detail::archive_count<typename T::value_type>(a, v.size());
    if constexpr (A::kIsReader) {
      // Grow element by element instead of resize(n) up front: the count
      // guard bounds n by the bytes left, but a vector of large elements
      // would amplify that into sizeof(T) * n of allocation before the
      // first element read could fail. Incremental growth keeps allocation
      // proportional to bytes actually consumed.
      v.clear();
      for (std::uint64_t i = 0; i < n && a.ok(); ++i) {
        v.emplace_back();
        archive(a, v.back());
      }
    } else {
      for (auto& e : v) archive(a, e);
    }
  } else if constexpr (detail::is_pair<T>::value) {
    archive(a, v.first);
    archive(a, v.second);
  } else if constexpr (detail::is_map<T>::value) {
    std::uint64_t n =
        detail::archive_count<typename T::value_type>(a, v.size());
    if constexpr (A::kIsReader) {
      v.clear();
      for (std::uint64_t i = 0; i < n && a.ok(); ++i) {
        typename T::key_type k{};
        typename T::mapped_type m{};
        archive(a, k);
        archive(a, m);
        v.emplace_hint(v.end(), std::move(k), std::move(m));
      }
    } else {
      for (auto& [k, m] : v) {
        archive(a, const_cast<typename T::key_type&>(k));
        archive(a, m);
      }
    }
  } else if constexpr (detail::is_set<T>::value) {
    std::uint64_t n =
        detail::archive_count<typename T::value_type>(a, v.size());
    if constexpr (A::kIsReader) {
      v.clear();
      for (std::uint64_t i = 0; i < n && a.ok(); ++i) {
        typename T::key_type k{};
        archive(a, k);
        v.emplace_hint(v.end(), std::move(k));
      }
    } else {
      for (auto& k : v) archive(a, const_cast<typename T::key_type&>(k));
    }
  } else if constexpr (detail::is_optional<T>::value) {
    std::uint8_t has = 0;
    if constexpr (!A::kIsReader) has = v.has_value() ? 1 : 0;
    a.raw(&has, sizeof has);
    if constexpr (A::kIsReader) {
      if (has) {
        v.emplace();
        archive(a, *v);
      } else {
        v.reset();
      }
    } else {
      if (has) archive(a, *v);
    }
  } else if constexpr (detail::is_variant<T>::value) {
    std::uint32_t idx = 0;
    if constexpr (!A::kIsReader) idx = static_cast<std::uint32_t>(v.index());
    a.raw(&idx, sizeof idx);
    if constexpr (A::kIsReader) {
      if (idx >= std::variant_size_v<T>) {
        a.fail("variant index out of range");
        return;
      }
      detail::variant_read_alternative<0>(a, v, idx);
    } else {
      std::visit([&a](auto& alt) { archive(a, alt); }, v);
    }
  } else if constexpr (requires { v.persist_fields(a); }) {
    v.persist_fields(a);
  } else if constexpr (requires { persist_fields(a, v); }) {
    persist_fields(a, v);  // ADL: see persist/fields.hpp
  } else {
    static_assert(detail::dependent_false<T>,
                  "no persist_fields() for this type");
  }
}

template <typename T>
void Writer::operator()(const T& v) {
  // The writer never stores through the reference; const_cast lets one
  // archive() traversal serve both directions.
  archive(*this, const_cast<T&>(v));
}

template <typename T>
void Reader::operator()(T& v) {
  archive(*this, v);
}

// --- files and debugging ----------------------------------------------------

/// Write atomically: to `path + ".tmp"`, then rename over `path`, so an
/// interrupted writer never leaves a torn checkpoint behind.
Status write_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes);

Status read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Human-readable dump of a blob's header and section framing (tag, payload
/// size, CRC verdict) — the first tool to reach for when a resume fails.
std::string describe(const std::vector<std::uint8_t>& bytes);

}  // namespace chs::persist
