// Shared declarations of the repository benchmark (see README.md).
//
// One process drives one workload: it builds the default SEPTIC
// configuration, generates every statement from the seed, checks every
// reply, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). Spans are recorded only here, around calls into
// the library's public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <climits>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// xorshift64* — the same family the repository's fuzz tests use; every
/// generated literal comes from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {
    if (s_ == 0) s_ = 1;
  }
  uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

// --- latency recording ----------------------------------------------------

/// Summary of one operation class over a measured window.
struct LatencySummary {
  uint64_t count = 0;  // ok + failed
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;  // of the successes
};

/// Latencies of one operation class over a whole measured window, kept as
/// one log-linear histogram (64 sub-buckets per power of two nanoseconds,
/// so a percentile is within 1% of the sample's value). Memory stays
/// constant however many operations run, so the process's peak RSS is the
/// engine's, not the recorder's. A failed operation counts as slower than
/// every success: it misses every latency limit.
class LatencyLog {
 public:
  LatencyLog();

  void add(int64_t lat_ns);
  void add_failed() { ++failed_; }
  void merge(const LatencyLog& other);

  /// Percentiles over every operation of the window.
  LatencySummary summarize() const;

 private:
  static constexpr int kSub = 64;
  static constexpr size_t kBuckets = (32 - 5) * kSub;  // every uint32 ns value
  static size_t bucket_of(uint32_t ns);
  static void bounds_of(size_t bucket, double& lo, double& width);
  double quantile_us(double q) const;

  std::vector<uint64_t> buckets_;
  uint64_t ok_ = 0, failed_ = 0;
  double sum_ns_ = 0;
};

/// Plain percentile of an unsorted vector (nearest rank).
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// --- process probes -------------------------------------------------------

/// User + system CPU seconds of the whole process (getrusage).
double process_cpu_s();
/// A field of /proc/self/status in its native unit (kB for Vm*, count for
/// Threads); 0 when absent.
double proc_status(const char* field);

// --- result ---------------------------------------------------------------

/// Thread-safe collector of failed checks: the generator threads and the
/// window checks report here; the run is correct when it stays empty.
class Violations {
 public:
  void add(std::string what);
  uint64_t count() const;
  /// The first messages, in the order they came (at most kKept).
  std::vector<std::string> first() const;

  static constexpr size_t kKept = 20;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> first_;
  uint64_t count_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // operations a latency is taken over; 0 otherwise
};

/// What one run prints: every metric it measured (run.py keeps the ones
/// BENCHMARK.json names for the mode), the operation counts, and the
/// failed checks.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  Violations violations;
  /// The configuration the run measured, as one JSON object, and every
  /// setting in it that differs from the pinned defaults.
  std::string fingerprint;
  std::vector<std::string> nondefault;

  void set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
  int threads = 4;      // generator threads = connections = min(4, nproc)
};

/// The three workloads. Each fills `r` and returns normally; a failed
/// correctness check is recorded in `r`, not thrown.
void run_hot_read(const Options& o, Report& r);
void run_adhoc_rw(const Options& o, Report& r);
void run_tcp_durable(const Options& o, Report& r);

}  // namespace perfbench
