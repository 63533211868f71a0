#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <fstream>

namespace perfbench {

namespace {
const std::int64_t g_start_ns = now_ns();
}  // namespace

std::int64_t process_start_ns() { return g_start_ns; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool pin_this_thread(int index_from_end) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (static_cast<int>(cpus.size()) <= index_from_end || cpus.size() < 2) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - static_cast<std::size_t>(index_from_end)],
          &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double quiet_rate(const std::vector<double>& rates) {
  return percentile(rates, 90);
}

namespace {

constexpr std::size_t kBlock = 1000;

/// Percentile `q` over the blocks of `v` of each block's percentile `p`;
/// the p-th percentile of all samples when there is less than one block.
double block_percentile(const std::vector<double>& v, double p, double q) {
  if (v.size() < kBlock) return percentile(v, p);
  std::vector<double> per_block;
  for (std::size_t b = 0; b + kBlock <= v.size(); b += kBlock) {
    per_block.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                            v.begin() + static_cast<std::ptrdiff_t>(b + kBlock)),
        p));
  }
  return percentile(per_block, q);
}

}  // namespace

double rtt_p50(const std::vector<double>& v) {
  return block_percentile(v, 50, 10);
}

double rtt_p99(const std::vector<double>& v) {
  return block_percentile(v, 99, 50);
}

std::string describe_samples(const std::vector<double>& v) {
  if (v.empty()) return "no samples";
  double lo = 0;
  double hi = 0;
  for (std::size_t b = 0; b + kBlock <= v.size(); b += kBlock) {
    const double p = percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                            v.begin() + static_cast<std::ptrdiff_t>(b + kBlock)),
        99);
    lo = b == 0 ? p : std::min(lo, p);
    hi = std::max(hi, p);
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu samples, p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f; "
                "p99 of 1000-sample blocks %.3f .. %.3f",
                v.size(), percentile(v, 50), percentile(v, 90),
                percentile(v, 99), percentile(v, 99.9), lo, hi);
  return buf;
}

void print_result_line(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const Metric& m : r.metrics) {
    if (!first) out += ", ";
    first = false;
    // %.17g keeps every digit of the measured double.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Tracer::Tracer(std::size_t cap) : cap_(cap) {
  // The cheapest of ten batches: interference only ever adds time.
  const std::uint32_t probe = name("tracer.calibration");
  constexpr int kBatches = 10;
  constexpr int kSamples = 5'000;
  for (int b = 0; b < kBatches; ++b) {
    agg_[probe] = Agg{};
    for (int i = 0; i < kSamples; ++i) {
      begin(probe, 0);
      end();
    }
    const double mean = total_ns_per_call(probe);
    overhead_ns_ = b == 0 ? mean : std::min(overhead_ns_, mean);
  }
  names_.clear();
  agg_.clear();
  kept_.clear();
  next_id_ = 1;
}

std::uint32_t Tracer::name(const std::string& n) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(n);
  agg_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

double Tracer::self_ns_per_call(std::uint32_t name) const {
  const Agg& a = agg_.at(name);
  return a.count ? static_cast<double>(self_ns_total(name)) /
                       static_cast<double>(a.count)
                 : 0.0;
}

double Tracer::total_ns_per_call(std::uint32_t name) const {
  const Agg& a = agg_.at(name);
  return a.count ? static_cast<double>(a.total_ns) /
                       static_cast<double>(a.count)
                 : 0.0;
}

std::int64_t Tracer::self_ns_total(std::uint32_t name) const {
  const Agg& a = agg_.at(name);
  return a.total_ns - a.child_ns -
         static_cast<std::int64_t>(overhead_ns_ *
                                   static_cast<double>(a.count));
}

bool Tracer::dump(const std::string& path, const std::string& thread) const {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  for (const Kept& k : kept_) {
    f << "{\"thread\":\"" << thread << "\",\"span\":" << k.id
      << ",\"parent\":" << k.parent << ",\"name\":\"" << names_[k.name]
      << "\",\"op\":" << k.op << ",\"start_ns\":" << k.t0
      << ",\"end_ns\":" << k.t1 << "}\n";
  }
  return static_cast<bool>(f);
}

std::string span_dump_path(const Options& opt) {
  constexpr const char* kDir = ".bench_spans";
  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  std::ofstream truncate(path, std::ios::trunc);
  return path;
}

}  // namespace perfbench
