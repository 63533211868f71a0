// admission_spike.cpp — the control plane under the paper's spike test
// (Fig 11) on the default stack, with no data traffic at all.
//
// Each burst submits kBurst jobs at one instant and drives the event
// loop in 250 ms virtual steps until every job is gone.  90 % of the
// jobs use vni: "true" (one VNI per job, acquired and released); a
// seeded 10 % name one of kClaims VniClaims (a shared VNI, add_user /
// remove_user).  Every job runs one pod for 100 ms and deletes itself on
// completion.  After each burst, kLoneJobs jobs run one at a time on
// the idle cluster; their host round trips (submit -> gone) are the
// rtt_* samples.  Each round (burst + lone jobs) runs on a freshly built
// cluster.  An op for ops_per_s is one burst job admitted and removed.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "checks.hpp"
#include "common.hpp"
#include "core/stack.hpp"

namespace perfbench {

using namespace shs;

namespace {

constexpr int kBurst = 500;
constexpr int kClaims = 4;
constexpr double kClaimShare = 0.10;
constexpr int kLoneJobs = 1000;
constexpr SimDuration kStep = 250 * kMillisecond;
constexpr SimDuration kMaxDrain = 30 * 60 * kSecond;
constexpr int kRegistryPairs = 2000;

/// One cluster: a fresh default stack with kClaims bound claims and the
/// watches that record every job's admission.  Each round builds one, so
/// every burst lands on an idle cluster (the paper's spike test) and
/// memory does not grow with the number of rounds the host completes.
struct Spike {
  std::vector<std::uint32_t> claim_vni;
  std::unordered_map<k8s::Uid, std::size_t> index_of;
  std::vector<checks::JobTrace> jobs;
  std::uint64_t watch_events = 0;
  std::size_t live = 0;  ///< submitted and not yet removed
  std::uint64_t submit_failed = 0;
  /// Last member: destroyed first, while the state its watches write
  /// is still alive.
  std::unique_ptr<core::SlingshotStack> stack;
};

/// Builds the cluster; false (with a violation) when claims never bind.
bool build(Spike& s, std::uint64_t seed, RunResult& res) {
  core::StackConfig cfg;
  cfg.seed = 0xad000000ULL + seed;
  s.stack = std::make_unique<core::SlingshotStack>(cfg);
  core::SlingshotStack& stack = *s.stack;
  sim::EventLoop& loop = stack.loop();
  stack.api().watch_jobs([&s, &loop](const k8s::WatchEvent<k8s::Job>& ev) {
    ++s.watch_events;
    const auto it = s.index_of.find(ev.object.meta.uid);
    if (it == s.index_of.end()) return;
    checks::JobTrace& j = s.jobs[it->second];
    if (ev.type == k8s::WatchEventType::kDeleted) {
      ++j.removed;
      j.end_vt = loop.now();
      --s.live;
    } else if (j.start_vt == 0 && ev.object.status.start_vt > 0) {
      ++j.started;
      j.start_vt = ev.object.status.start_vt;
    }
  });
  stack.api().watch_pods([&s](const k8s::WatchEvent<k8s::Pod>& ev) {
    ++s.watch_events;
    if (ev.object.status.phase != k8s::PodPhase::kRunning) return;
    const auto it = s.index_of.find(ev.object.meta.owner_uid);
    if (it != s.index_of.end()) s.jobs[it->second].vni = ev.object.status.vni;
  });
  for (int c = 0; c < kClaims; ++c) {
    if (!stack.create_claim("claims", "claim-" + std::to_string(c)).is_ok()) {
      res.violate("create_claim failed");
      return false;
    }
  }
  // A claim's VNI is the registry entry its VNI service acquired for it.
  const auto claim_vni = [&](int c) -> hsn::Vni {
    auto v = stack.registry().find_by_owner(core::VniEndpoint::claim_owner_key(
        "claims", "claim-" + std::to_string(c)));
    return v.is_ok() ? v.value() : hsn::kInvalidVni;
  };
  const bool bound = stack.run_until(
      [&] {
        for (int c = 0; c < kClaims; ++c) {
          if (claim_vni(c) == hsn::kInvalidVni) return false;
        }
        return true;
      },
      60 * kSecond);
  if (!bound) {
    res.violate("claims never bound a VNI");
    return false;
  }
  for (int c = 0; c < kClaims; ++c) s.claim_vni.push_back(claim_vni(c));
  return true;
}

k8s::Uid submit(Spike& s, RunResult& res, const std::string& name, int claim,
                Tracer* tr, std::uint32_t span) {
  core::JobOptions o;
  o.name = name;
  o.ns = claim < 0 ? "default" : "claims";
  o.vni_annotation = claim < 0 ? "true" : "claim-" + std::to_string(claim);
  o.pods = 1;
  o.run_duration = from_millis(100);
  o.grace_s = 5;
  o.ttl_after_finished_s = 0;
  Result<k8s::Uid> uid = [&] {
    if (tr == nullptr) return s.stack->submit_job(o);
    Span sp(*tr, span, s.jobs.size());
    return s.stack->submit_job(o);
  }();
  if (!uid.is_ok()) {
    ++s.submit_failed;
    res.violate("submit_job failed: " + uid.status().to_string());
    return k8s::kNoUid;
  }
  checks::JobTrace j;
  j.per_job_vni = claim < 0;
  j.claim = claim;
  s.index_of[uid.value()] = s.jobs.size();
  s.jobs.push_back(j);
  ++s.live;
  return uid.value();
}

/// The burst's job kinds: exactly kClaimShare of the jobs name a claim
/// (claims in turn), at seeded positions; -1 = vni: "true".
std::vector<int> burst_kinds(std::uint64_t seed) {
  std::vector<int> kinds(kBurst, -1);
  const int on_claims = static_cast<int>(kClaimShare * kBurst);
  for (int i = 0; i < on_claims; ++i) kinds[static_cast<std::size_t>(i)] = i % kClaims;
  InputRng rng(seed * 0x2545f491 + 3);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.below(i)]);
  }
  return kinds;
}

/// What the rounds measure, accumulated across them.
struct Totals {
  Samples burst_rates{0};  ///< burst jobs per host second
  Samples rtt_us{0};       ///< lone-job host round trips
  std::vector<double> admission_s;  ///< first burst: submit -> Running
  std::vector<double> peak_ms_per_vsec;
  std::vector<double> tail_ms_per_vsec;
  std::uint64_t burst_jobs = 0;
  std::uint64_t jobs = 0;  ///< burst and lone, submitted or not
  /// Jobs whose submit failed or that were still there when a drain
  /// gave up.
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::int64_t loop_ns = 0;
  std::size_t allocated_peak = 0;
  std::uint64_t syncs = 0;
  std::uint64_t wal_commits = 0;
  std::uint64_t api_writes = 0;
};

/// One round on cluster `s`: the burst, driven until every job is gone,
/// its checks, then the lone jobs.
void run_round(Spike& s, int round, const std::vector<int>& kinds, Totals& t,
               RunResult& res, Tracer* tr, std::uint32_t submit_span,
               std::uint32_t run_span) {
  core::SlingshotStack& stack = *s.stack;
  sim::EventLoop& loop = stack.loop();
  const auto step = [&](std::vector<std::pair<double, std::size_t>>* per_step) {
    const std::int64_t t0 = now_ns();
    const std::size_t n = [&] {
      if (tr == nullptr) return loop.run_until(loop.now() + kStep);
      Span sp(*tr, run_span, 0);
      return loop.run_until(loop.now() + kStep);
    }();
    const std::int64_t d = now_ns() - t0;
    t.events += n;
    t.loop_ns += d;
    if (per_step != nullptr) {
      per_step->emplace_back(static_cast<double>(d) / 1e6 / to_seconds(kStep),
                             s.live);
    }
    t.allocated_peak =
        std::max(t.allocated_peak, stack.registry().allocated_count());
  };

  // Sized up front: no rehash or reallocation inside a timed lone job.
  s.jobs.reserve(kBurst + kLoneJobs);
  s.index_of.reserve(kBurst + kLoneJobs);
  const std::size_t allocated0 = stack.registry().allocated_count();
  const SimTime v0 = loop.now();
  std::vector<std::pair<double, std::size_t>> per_step;
  // Every job of the round is an op; the ones that never got in or never
  // left are its failures.
  const auto settle = [&] {
    t.jobs += s.jobs.size() + s.submit_failed;
    t.failed += s.submit_failed + s.live;
  };
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kBurst; ++i) {
    submit(s, res, "spike-" + std::to_string(round) + "-" + std::to_string(i),
           kinds[static_cast<std::size_t>(i)], tr, submit_span);
  }
  while (s.live > 0 && loop.now() - v0 < kMaxDrain) step(&per_step);
  t.burst_rates.add(per_second(kBurst, now_ns() - t0));
  t.burst_jobs += kBurst;
  if (s.live > 0) {
    res.violate("burst " + std::to_string(round) + " did not drain");
    settle();
    return;
  }

  const std::size_t burst_jobs = s.jobs.size();  // submitted ones
  const std::span<const checks::JobTrace> burst(s.jobs.data(), burst_jobs);
  res.expect(checks::admitted_once(burst));
  res.expect(checks::vni_exclusive(burst));
  res.expect(checks::claims_shared(burst, s.claim_vni));
  res.expect(checks::registry_restored(allocated0,
                                       stack.registry().allocated_count()));
  if (round == 0) {
    for (const auto& j : burst) t.admission_s.push_back(to_seconds(j.start_vt - v0));
  }
  const core::VniEndpointCounters& vc = stack.vni_endpoint().counters();
  t.syncs += vc.sync_job + vc.sync_claim;
  t.wal_commits += stack.database().journal_commits();
  t.api_writes += s.watch_events;
  // Host ms per virtual second at the backlog peak (>= 90 % of the burst
  // live) and near the end of the drain (<= 10 % live).
  for (const auto& [ms, live] : per_step) {
    if (live * 10 >= kBurst * 9) t.peak_ms_per_vsec.push_back(ms);
    if (live * 10 <= kBurst) t.tail_ms_per_vsec.push_back(ms);
  }

  // Lone jobs on the idle cluster: host round trip submit -> gone.
  for (int k = 0; k < kLoneJobs; ++k) {
    const std::int64_t l0 = now_ns();
    submit(s, res, "lone-" + std::to_string(round) + "-" + std::to_string(k),
           -1, nullptr, 0);
    const SimTime lv0 = loop.now();
    while (s.live > 0 && loop.now() - lv0 < kMaxDrain) step(nullptr);
    t.rtt_us.add(static_cast<double>(now_ns() - l0) / 1e3);
  }
  res.expect(checks::admitted_once(std::span<const checks::JobTrace>(
      s.jobs.begin() + static_cast<std::ptrdiff_t>(burst_jobs),
      s.jobs.end())));
  settle();
}

}  // namespace

RunResult run_admission_spike(const Options& opt) {
  RunResult res;
  auto spike = std::make_unique<Spike>();
  if (!build(*spike, opt.seed, res)) return res;
  const std::vector<int> kinds = burst_kinds(opt.seed);
  std::optional<Tracer> tracer;  // traced runs only: it calibrates itself
  std::uint32_t submit_span = 0;
  std::uint32_t run_span = 0;
  if (opt.trace) {
    submit_span = tracer.emplace().name("core.stack.submit_job");
    run_span = tracer->name("sim.loop.run_until");
  }
  Tracer* trp = tracer ? &*tracer : nullptr;

  const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const int max_rounds = opt.tiny ? 1 : 1 << 30;
  Totals t;
  // Per-second capacities leave 2x headroom over this host's rates.
  t.rtt_us = Samples(static_cast<std::size_t>(opt.seconds * 4e3) + 1024);
  t.burst_rates = Samples(static_cast<std::size_t>(opt.seconds * 8) + 1024);
  int round = 0;
  // Set-up ends here: everything above, from process start, is setup_s.
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) / 1e9;
  const std::int64_t t_begin = now_ns();
  while (now_ns() - t_begin < budget_ns && round < max_rounds &&
         res.violations.empty()) {
    if (round > 0) {
      spike = std::make_unique<Spike>();
      if (!build(*spike, opt.seed, res)) break;
    }
    run_round(*spike, round, kinds, t, res, trp, submit_span, run_span);
    ++round;
  }

  res.attempted = t.jobs;
  res.failed = t.failed;
  const double sim_p50_s = percentile(t.admission_s, 50);
  res.info.push_back("rounds " + std::to_string(round) + " of " +
                     std::to_string(kBurst) + "-job bursts, lone jobs " +
                     std::to_string(t.rtt_us.offered()) + ", admission p50 " +
                     std::to_string(sim_p50_s) + " s virtual, events " +
                     std::to_string(t.events));
  res.info.push_back("rtt_us: " + describe_samples(t.rtt_us.values()));
  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", quiet_rate(t.burst_rates.values()), "ops/s");
    res.add("rtt_p50_us", rtt_p50(t.rtt_us.values()), "us");
    res.add("rtt_p99_us", rtt_p99(t.rtt_us.values()), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("sim_latency_us", sim_p50_s * 1e6, "us");
    return res;
  }

  // Registry cost after the drain: acquire + release pairs.
  core::SlingshotStack& stack = *spike->stack;
  const std::size_t allocated_before = stack.registry().allocated_count();
  const std::int64_t r0 = now_ns();
  for (int i = 0; i < kRegistryPairs; ++i) {
    const std::string owner = "perfbench-probe-" + std::to_string(i);
    auto v = stack.registry().acquire(owner, stack.loop().now());
    const Status st = stack.registry().release(owner, stack.loop().now());
    if (!v.is_ok() || !st.is_ok()) {
      res.violate("registry acquire/release failed");
      break;
    }
  }
  const double pair_ns = static_cast<double>(now_ns() - r0) / kRegistryPairs;
  res.expect(checks::registry_restored(allocated_before,
                                       stack.registry().allocated_count()));

  const Tracer& tr = *tracer;
  const double jobs = static_cast<double>(std::max<std::uint64_t>(t.burst_jobs, 1));
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  res.add("trace.ops_per_s", quiet_rate(t.burst_rates.values()), "ops/s");
  res.add("core.stack.submit_job_ns", tr.self_ns_per_call(submit_span), "ns");
  res.add("sim.loop.events_per_job",
          static_cast<double>(t.events) / static_cast<double>(t.jobs), "count");
  res.add("sim.loop.ns_per_event",
          t.events ? static_cast<double>(t.loop_ns) / static_cast<double>(t.events)
                   : 0.0,
          "ns");
  res.add("sim.loop.ms_per_vsec_peak", mean(t.peak_ms_per_vsec), "ms/s");
  res.add("sim.loop.ms_per_vsec_tail", mean(t.tail_ms_per_vsec), "ms/s");
  // Per burst job: the counters cover the lone jobs and the claims too.
  res.add("k8s.api.writes_per_job", static_cast<double>(t.api_writes) / jobs,
          "count");
  res.add("core.vni_endpoint.syncs_per_job", static_cast<double>(t.syncs) / jobs,
          "count");
  res.add("core.vni_registry.acquire_release_ns", pair_ns, "ns");
  res.add("core.vni_registry.allocated_peak",
          static_cast<double>(t.allocated_peak), "count");
  res.add("db.wal_commits_per_job", static_cast<double>(t.wal_commits) / jobs,
          "count");
  if (!tr.dump(span_dump_path(opt), "main")) {
    res.violate("could not write the span dump");
  }
  return res;
}

}  // namespace perfbench
