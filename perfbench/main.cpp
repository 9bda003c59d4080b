// septic_perfbench: one workload, one run.
//
//   septic_perfbench --workload hot-read|adhoc-rw|tcp-durable --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//
// Prints the configuration fingerprint, every metric the run measured by
// name with its unit and sample count, any failed check, and as its last
// line one JSON object {correct, attempted, failed, metrics}. --trace 0
// measures the end-to-end metrics, --trace 1 adds the per-layer ones;
// perfbench/run.py keeps the names BENCHMARK.json lists for the mode.
// Exits 1 when a correctness check failed, 2 on bad arguments or a
// non-default configuration (no result line then).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "septic_perfbench: %s\nusage: septic_perfbench --workload "
               "hot-read|adhoc-rw|tcp-durable --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (!*val || *end) return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (!*val || *end || !(o.seconds > 0) || o.seconds > 120) {
        return usage("--seconds takes a number in (0, 120]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      o.trace = val[0] == '1';
      have_trace = true;
    } else if (arg == "--workdir") {
      o.workdir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty() || o.workdir.empty() || !have_seconds || !have_trace) {
    return usage("--workload, --seconds, --trace and --workdir are required");
  }
  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (o.workload == "hot-read") run = perfbench::run_hot_read;
  if (o.workload == "adhoc-rw") run = perfbench::run_adhoc_rw;
  if (o.workload == "tcp-durable") run = perfbench::run_tcp_durable;
  if (!run) return usage(("unknown workload " + o.workload).c_str());
  const unsigned nproc = std::thread::hardware_concurrency();
  o.threads = static_cast<int>(nproc == 0 ? 1 : std::min(4u, nproc));
  std::filesystem::create_directories(o.workdir);

  perfbench::Report r;
  try {
    run(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "septic_perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  std::printf("fingerprint %s\n", r.fingerprint.c_str());
  if (!r.nondefault.empty()) {
    for (const std::string& d : r.nondefault) {
      std::fprintf(stderr, "septic_perfbench: non-default configuration: %s\n", d.c_str());
    }
    std::fprintf(stderr, "septic_perfbench: refusing to report numbers\n");
    return 2;
  }

  if (r.attempted == 0) r.violations.add("no operation was attempted");
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) r.violations.add("metric " + name + " is not finite");
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-34s %.6g %s", name.c_str(), value, m.unit.c_str());
    if (m.samples) std::printf(" (n=%" PRIu64 ")", m.samples);
    std::printf("\n");
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %" PRIu64 "}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, m.unit.c_str(), m.samples);
    metrics += buf;
  }
  const double fail_ratio =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0;
  std::printf("fail_ratio %.6g (%" PRIu64 " failed of %" PRIu64 " attempted)\n", fail_ratio,
              r.failed, r.attempted);
  for (const std::string& v : r.violations.first()) std::printf("VIOLATION %s\n", v.c_str());
  const uint64_t violations = r.violations.count();
  if (violations > perfbench::Violations::kKept) {
    std::printf("VIOLATION ... %" PRIu64 " in all\n", violations);
  }
  const bool correct = violations == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  return correct ? 0 : 1;
}
