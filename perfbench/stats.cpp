#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "perfbench.h"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

LatencyLog::LatencyLog() : buckets_(kBuckets, 0) {}

size_t LatencyLog::bucket_of(uint32_t ns) {
  if (ns < kSub) return ns;
  const int e = 31 - __builtin_clz(ns);  // ns in [2^e, 2^(e+1)), e >= 6
  const uint32_t sub = (ns >> (e - 6)) & (kSub - 1);
  return static_cast<size_t>(e - 5) * kSub + sub;
}

void LatencyLog::bounds_of(size_t bucket, double& lo, double& width) {
  if (bucket < kSub) {
    lo = static_cast<double>(bucket);
    width = 0;
    return;
  }
  const int e = static_cast<int>(bucket / kSub) + 5;
  width = std::ldexp(1.0, e - 6);
  lo = (kSub + static_cast<double>(bucket % kSub)) * width;
}

void LatencyLog::add(int64_t lat_ns) {
  const uint32_t ns = static_cast<uint32_t>(std::clamp<int64_t>(lat_ns, 0, UINT32_MAX));
  ++buckets_[bucket_of(ns)];
  ++ok_;
  sum_ns_ += static_cast<double>(ns);
}

void LatencyLog::merge(const LatencyLog& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  ok_ += other.ok_;
  failed_ += other.failed_;
  sum_ns_ += other.sum_ns_;
}

double LatencyLog::quantile_us(double q) const {
  const uint64_t total = ok_ + failed_;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::max<uint64_t>(rank, 1);
  if (rank > ok_) return static_cast<double>(UINT32_MAX) / 1e3;  // a failure
  // Interpolate the rank's position inside its bucket, so the result moves
  // continuously with the data instead of in 1% steps.
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t c = buckets_[b];
    if (seen + c >= rank) {
      double lo = 0, width = 0;
      bounds_of(b, lo, width);
      const double pos = (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(c);
      return (lo + width * pos) / 1e3;
    }
    seen += c;
  }
  return 0;
}

LatencySummary LatencyLog::summarize() const {
  LatencySummary out;
  out.count = ok_ + failed_;
  if (out.count == 0) return out;
  out.mean_us = ok_ ? sum_ns_ / static_cast<double>(ok_) / 1e3 : 0;
  out.p50_us = quantile_us(0.50);
  out.p99_us = quantile_us(0.99);
  return out;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double proc_status(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double value = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      value = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return value;
}

void Violations::add(std::string what) {
  std::lock_guard lock(mu_);
  ++count_;
  if (first_.size() < kKept) first_.push_back(std::move(what));
}

uint64_t Violations::count() const {
  std::lock_guard lock(mu_);
  return count_;
}

std::vector<std::string> Violations::first() const {
  std::lock_guard lock(mu_);
  return first_;
}

}  // namespace perfbench
