// selftest.cpp — shows that the checks can fail.
//
// First every workload runs at a tiny size and must pass all of its
// checks.  Then each checker gets a valid input, which it must accept,
// and deliberately wrong ones — a dropped or duplicated sequence number,
// a delivered probe, an arrival before its bound, a corrupted read
// pattern, a broken conservation sum, a digest mismatch, a reused VNI, a
// leaked registry entry, ... — each of which it must reject.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "fabric_common.hpp"

namespace perfbench {

namespace {

using shs::hsn::DropReason;

struct Tally {
  int failures = 0;
  void expect(const char* check, const char* input, const std::string& err,
              bool want_reject) {
    const bool rejected = !err.empty();
    const bool ok = rejected == want_reject;
    if (!ok) ++failures;
    std::fprintf(stderr, "selftest %-22s %-34s %s%s%s\n", check, input,
                 rejected ? "rejected" : "accepted", ok ? "" : "  <-- WRONG",
                 rejected ? ("  (" + err + ")").c_str() : "");
  }
};

void run_workloads_tiny(Tally& t) {
  const std::pair<const char*, RunResult (*)(const Options&)> workloads[] = {
      {"fabric_sync", run_fabric_sync},
      {"fabric_engine", run_fabric_engine},
      {"app_pingpong", run_app_pingpong},
      {"admission_spike", run_admission_spike},
  };
  for (const auto& [name, fn] : workloads) {
    Options opt;
    opt.workload = name;
    opt.seed = 7;
    opt.seconds = 60;
    opt.tiny = true;
    const RunResult r = fn(opt);
    const std::string err =
        r.violations.empty() ? std::string() : r.violations.front();
    t.expect(name, "tiny run", err, false);
  }
}

void run_checkers(Tally& t) {
  namespace c = checks;
  // Exactly-once delivery: op 2 is a probe.
  const std::vector<std::uint8_t> probe = {0, 0, 1, 0};
  t.expect("exactly_once", "every op once, probe refused",
           c::exactly_once(std::vector<std::uint32_t>{1, 1, 0, 1}, probe), false);
  t.expect("exactly_once", "dropped sequence number",
           c::exactly_once(std::vector<std::uint32_t>{1, 0, 0, 1}, probe), true);
  t.expect("exactly_once", "duplicated sequence number",
           c::exactly_once(std::vector<std::uint32_t>{1, 2, 0, 1}, probe), true);
  t.expect("exactly_once", "delivered probe",
           c::exactly_once(std::vector<std::uint32_t>{1, 1, 1, 1}, probe), true);

  // Arrival bound of a real op of the fabric mix.
  FabricRig rig = make_fabric_rig(7);
  InputRng rng(7);
  std::vector<FabricOp> ops = make_round(rng, rig, 1, Blend{0, 0, 0});
  fill_bounds(ops, fabric_timing(), fabric_topology());
  const std::int64_t posted = 1'000'000;
  const std::int64_t bound = posted + ops[0].bound0 + 2 * ops[0].bound_per_hop;
  t.expect("arrival_not_before", "arrival at the bound",
           c::arrival_not_before(bound, bound, 0), false);
  t.expect("arrival_not_before", "arrival before the bound",
           c::arrival_not_before(bound - 1, bound, 0), true);

  t.expect("probe_refused", "refused at the destination edge",
           c::probe_refused(DropReason::kDstNotAuthorized, 0), false);
  t.expect("probe_refused", "delivered probe",
           c::probe_refused(DropReason::kNone, 0), true);
  t.expect("probe_refused", "dropped for another reason",
           c::probe_refused(DropReason::kNoRoute, 0), true);

  t.expect("conserved", "attempts = delivered + drops",
           c::conserved("fabric", 10, 8, 2), false);
  t.expect("conserved", "a packet unaccounted for",
           c::conserved("fabric", 10, 8, 1), true);

  std::vector<std::byte> pattern(256);
  fill_pattern(pattern, 0x7ead0000ULL + 3, 0);
  std::vector<std::byte> corrupt = pattern;
  corrupt[100] ^= std::byte{0x40};
  t.expect("bytes_match", "read pattern intact",
           c::bytes_match(pattern, pattern, "read data", 0), false);
  t.expect("bytes_match", "corrupted read pattern",
           c::bytes_match(corrupt, pattern, "read data", 0), true);
  t.expect("bytes_match", "short write",
           c::bytes_match(std::span<const std::byte>(pattern).first(255),
                          pattern, "written bytes", 0),
           true);

  t.expect("digests_equal", "equal digests", c::digests_equal(42, 42, "t1/t2"),
           false);
  t.expect("digests_equal", "digest differs at t2",
           c::digests_equal(42, 43, "t1/t2"), true);

  t.expect("message_matches", "right size and seq",
           c::message_matches(256, 9, 256, 9), false);
  t.expect("message_matches", "out of order (seq)",
           c::message_matches(256, 9, 256, 10), true);
  t.expect("message_matches", "wrong size",
           c::message_matches(256, 9, 255, 9), true);

  t.expect("model_bound", "latency above its floor",
           c::model_bound(1.53, 1.35, true, "latency"), false);
  t.expect("model_bound", "latency below its floor",
           c::model_bound(1.20, 1.35, true, "latency"), true);
  t.expect("model_bound", "bandwidth above line rate",
           c::model_bound(25'001, 25'000, false, "bandwidth"), true);

  checks::JobTrace a;
  a.started = 1;
  a.removed = 1;
  a.per_job_vni = true;
  a.vni = 2000;
  a.start_vt = 10;
  a.end_vt = 20;
  checks::JobTrace b = a;
  b.start_vt = 30;
  b.end_vt = 40;
  t.expect("admitted_once", "admitted and removed once",
           c::admitted_once(std::vector<checks::JobTrace>{a, b}), false);
  checks::JobTrace twice = a;
  twice.started = 2;
  t.expect("admitted_once", "admitted twice",
           c::admitted_once(std::vector<checks::JobTrace>{a, twice}), true);
  checks::JobTrace stuck = a;
  stuck.removed = 0;
  t.expect("admitted_once", "never removed",
           c::admitted_once(std::vector<checks::JobTrace>{stuck}), true);

  t.expect("vni_exclusive", "VNI reused after release",
           c::vni_exclusive(std::vector<checks::JobTrace>{a, b}), false);
  checks::JobTrace overlap = a;
  overlap.start_vt = 15;
  overlap.end_vt = 25;
  t.expect("vni_exclusive", "VNI reused while held",
           c::vni_exclusive(std::vector<checks::JobTrace>{a, overlap}), true);

  checks::JobTrace on_claim = a;
  on_claim.per_job_vni = false;
  on_claim.claim = 1;
  on_claim.vni = 3001;
  const std::vector<std::uint32_t> claim_vni = {3000, 3001};
  t.expect("claims_shared", "job on its claim's VNI",
           c::claims_shared(std::vector<checks::JobTrace>{on_claim}, claim_vni),
           false);
  on_claim.vni = 3000;
  t.expect("claims_shared", "job on another claim's VNI",
           c::claims_shared(std::vector<checks::JobTrace>{on_claim}, claim_vni),
           true);

  t.expect("registry_restored", "back to its start",
           c::registry_restored(4, 4), false);
  t.expect("registry_restored", "leaked registry entry",
           c::registry_restored(4, 5), true);
}

}  // namespace

int run_self_test() {
  Tally t;
  run_workloads_tiny(t);
  run_checkers(t);
  std::fprintf(stderr, "selftest: %s (%d wrong)\n",
               t.failures == 0 ? "PASS" : "FAIL", t.failures);
  return t.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
