// common.hpp — shared pieces of the benchmark driver: options, the
// seeded input generator, host clocks, sample statistics, the result
// line, and the in-memory span tracer used by traced runs.
//
// Host time (what the simulator costs) is always read from
// std::chrono::steady_clock here; virtual time (what the modeled fabric
// would take) only ever comes from the program's SimTime values.  The two
// are never added together.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: each workload runs a handful of rounds only.
  bool tiny = false;
};

// -- Host clock -------------------------------------------------------------

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time at main() entry: every run's setup_s is measured from here.
std::int64_t process_start_ns();

/// Peak resident set of this process, in MB (getrusage).
double peak_rss_mb();

/// Pins the calling thread to one CPU of the process's allowed set
/// (`index` counts from the end of that set).  Returns false when the
/// set is too small or the call is refused; the run then goes unpinned.
bool pin_this_thread(int index_from_end);

// -- Seeded inputs ------------------------------------------------------------

/// splitmix64-seeded xoshiro256**: the benchmark's own generator, so the
/// inputs depend on --seed alone and never on the program's RNG streams.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

/// Word `w` of the seeded pattern with key `key` (RMA regions, payloads):
/// pattern bytes 8w .. 8w+7, lowest first.
inline std::uint64_t pattern_word(std::uint64_t key, std::uint64_t w) noexcept {
  std::uint64_t z = key * 0x9e3779b97f4a7c15ULL + w * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 29;
  z *= 0x94d049bb133111ebULL;
  return z ^ (z >> 32);
}

/// Fills `out` with pattern bytes [first, first + out.size()) of `key`.
inline void fill_pattern(std::span<std::byte> out, std::uint64_t key,
                         std::uint64_t first) noexcept {
  std::uint64_t w = ~0ULL;
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::uint64_t i = first + j;
    if (i / 8 != w) {
      w = i / 8;
      word = pattern_word(key, w);
    }
    out[j] = static_cast<std::byte>((word >> (8 * (i % 8))) & 0xff);
  }
}

/// FNV-1a fold, for digests.
inline void fold(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

// -- Sample statistics ------------------------------------------------------------

/// Fixed-capacity sample store.  The whole capacity is allocated and
/// touched when built (set-up), so peak RSS does not depend on how many
/// samples a run happens to take — neither through pages touched later
/// nor through the reallocate-and-copy step of a growing vector.  Samples
/// past the capacity are not kept (capacities are sized well above what
/// a run takes).
class Samples {
 public:
  explicit Samples(std::size_t capacity) {
    v_.resize(capacity);  // touches every page
    v_.clear();           // keeps them
  }
  void add(double x) {
    if (v_.size() < v_.capacity()) v_.push_back(x);
    ++offered_;
  }
  /// The kept samples, in the order taken.
  [[nodiscard]] const std::vector<double>& values() const { return v_; }
  /// Samples offered, kept or not.
  [[nodiscard]] std::size_t offered() const noexcept { return offered_; }

 private:
  std::vector<double> v_;
  std::size_t offered_ = 0;
};

/// Rate of `count` events over `ns` host nanoseconds (0 when ns == 0).
inline double per_second(std::uint64_t count, std::int64_t ns) {
  return ns > 0 ? static_cast<double>(count) * 1e9 / static_cast<double>(ns)
                : 0.0;
}

/// Nearest-rank percentile of `v`, p in [0, 100].
double percentile(std::vector<double> v, double p);

// The host these figures come from shares its cores with other
// machines, and it switches between a quiet and a disturbed mode every
// few seconds (the same round runs ~1.7x slower in the second).  A
// median over a run moves with the share of the run that was disturbed,
// so rates and medians are taken from the run's quiet stretches instead.
// Round trips are cut into blocks of 1000 consecutive samples (in the
// order taken), so every block holds 10 samples beyond its p99.

/// ops_per_s: the 90th percentile of per-round rates (one entry per
/// round, in any order), the rate of the run's quiet stretches.
double quiet_rate(const std::vector<double>& rates);

/// rtt_p50_us: the 10th percentile over blocks of each block's median,
/// the median of the run's quiet stretches.
double rtt_p50(const std::vector<double>& v);

/// rtt_p99_us: the median over blocks of each block's p99.  A block's
/// p99 rests on its ten slowest samples, so the lowest block p99s would
/// pick out the estimate's own noise rather than the quiet stretches.
double rtt_p99(const std::vector<double>& v);

/// "n samples, p50 / p90 / p99 / p99.9" of `v`.
std::string describe_samples(const std::vector<double>& v);

// -- Result line -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output-check violations (empty = correct).  The first few are
  /// echoed on stderr.
  std::vector<std::string> violations;
  /// Human-readable notes for stderr (sample counts, ladder totals).
  std::vector<std::string> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void violate(std::string what) {
    if (violations.size() < 64) violations.push_back(std::move(what));
  }
  /// Records `err` when non-empty; returns true when it was empty.
  bool expect(const std::string& err) {
    if (err.empty()) return true;
    violate(err);
    return false;
  }
};

/// Prints the result object as the last line of stdout.
void print_result_line(const RunResult& r);

// -- Tracing -------------------------------------------------------------------

/// In-memory span recorder for traced runs.  Every span is aggregated
/// (count, total, child time, so self = total - child) whatever its
/// number; the first `cap` spans are also kept verbatim — name, start,
/// end, parent span and op id — and written out when the run ends.
/// Spans nest through a small open-span stack; one tracer per thread.
/// Self times are corrected for the tracer's own cost: the recorded
/// duration of an empty span, measured when the tracer is built.
class Tracer {
 public:
  explicit Tracer(std::size_t cap = 50'000);


  /// Registers a span name and returns its id (call before timing).
  std::uint32_t name(const std::string& n);

  void begin(std::uint32_t name, std::uint64_t op) {
    Open o;
    o.id = next_id_++;
    o.name = name;
    o.op = op;
    o.parent = open_.empty() ? 0 : open_.back().id;
    o.parent_name = open_.empty() ? kNoName : open_.back().name;
    open_.push_back(o);
    open_.back().t0 = now_ns();
  }
  /// Ends the innermost open span; returns its duration in ns.
  std::int64_t end() {
    const std::int64_t t1 = now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t d = t1 - o.t0;
    Agg& a = agg_[o.name];
    ++a.count;
    a.total_ns += d;
    if (o.parent_name != kNoName) agg_[o.parent_name].child_ns += d;
    if (kept_.size() < cap_) {
      kept_.push_back({o.id, o.parent, o.op, o.name, o.t0, t1});
    }
    return d;
  }

  /// Per-call self time of `name` in ns (0 if never recorded), net of
  /// the tracer's own per-span cost.
  [[nodiscard]] double self_ns_per_call(std::uint32_t name) const;
  [[nodiscard]] double total_ns_per_call(std::uint32_t name) const;
  [[nodiscard]] std::int64_t self_ns_total(std::uint32_t name) const;

  /// Appends the kept spans to `path` as JSON lines; `thread` labels them.
  bool dump(const std::string& path, const std::string& thread) const;

 private:
  static constexpr std::uint32_t kNoName = 0xffffffffu;
  struct Open {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::uint32_t name = 0;
    std::uint32_t parent_name = kNoName;
    std::int64_t t0 = 0;
  };
  struct Kept {
    std::uint64_t id, parent, op;
    std::uint32_t name;
    std::int64_t t0, t1;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::size_t cap_;
  double overhead_ns_ = 0;  ///< recorded duration of an empty span
  std::uint64_t next_id_ = 1;
  std::vector<std::string> names_;
  std::vector<Agg> agg_;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& t, std::uint32_t name, std::uint64_t op) : t_(t) {
    t_.begin(name, op);
  }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

/// Path of the span dump for this run, relative to the working directory:
/// .bench_spans/<workload>-seed<n>.jsonl (created, and emptied, on demand).
std::string span_dump_path(const Options& opt);

// -- Workloads -----------------------------------------------------------------

RunResult run_fabric_sync(const Options& opt);
RunResult run_fabric_engine(const Options& opt);
RunResult run_app_pingpong(const Options& opt);
RunResult run_admission_spike(const Options& opt);

}  // namespace perfbench
