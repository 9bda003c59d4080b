// In-memory span recording for the traced run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's own code. Each thread appends to its own buffer; a span's
// parent is the span open on the same thread when it started (the
// thread-scoped id), so SEPTIC calls made inside Database::execute nest
// under it. Spans recorded on the server's worker threads have no parent.
// Buffers are read only after every recording thread has been joined.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/interceptor.h"
#include "perfbench.h"
#include "septic/septic.h"

namespace perfbench {

enum class Layer : uint8_t {
  kExecute,          // Database::execute, called by a generator thread
  kOnQuery,          // Septic::on_query
  kOnQueryReplayed,  // Septic::on_query_replayed
  kOnPreparedExec,   // Septic::on_prepared_exec
  kClientQuery,      // net::Client::query of a read
  kClientCommit,     // net::Client::query("COMMIT")
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* layer_name(Layer l);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;  // 1-based index in the same thread's buffer; 0 = none
  uint8_t layer = 0;
};

struct LayerTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // total minus the time covered by child spans

  double mean_us() const { return count ? total_ns / count / 1e3 : 0; }
  double self_mean_us() const { return count ? self_ns / count / 1e3 : 0; }
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Generator threads trace one request in `kSampleEvery`; the calls a
  /// skipped request makes record nothing. Threads that never call this
  /// (the server's workers) record every call.
  static constexpr uint64_t kSampleEvery = 8;
  void set_thread_sampled(bool sampled);

  struct ThreadBuf {
    std::vector<Span> spans;
    uint32_t current = 0;
    bool skip = false;
    uint64_t dropped = 0;  // spans not recorded because the buffer was full
  };
  ThreadBuf& local();

  /// Per-layer count, total and self time over every recorded span.
  std::array<LayerTotals, kLayerCount> totals() const;
  uint64_t span_count() const;
  uint64_t dropped() const;
  /// Tab-separated dump: thread, span, parent, layer, start_ns, dur_ns.
  bool dump(const std::string& path) const;

  static constexpr size_t kMaxSpansPerThread = size_t{1} << 21;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  size_t idx_ = 0;
};

/// Forwards every QueryInterceptor call to a core::Septic, timing the
/// three per-statement hooks. generations() and attach_digest_cache() are
/// forwarded too, so the engine's digest cache tags and stats behave
/// exactly as with the Septic installed directly.
class TracingInterceptor final : public septic::engine::QueryInterceptor {
 public:
  explicit TracingInterceptor(std::shared_ptr<septic::core::Septic> inner)
      : inner_(std::move(inner)) {}

  septic::engine::InterceptDecision on_query(
      const septic::engine::QueryEvent& event) override;
  septic::engine::InterceptorGenerations generations() const override;
  void on_query_replayed(const septic::engine::QueryEvent& event,
                         const septic::engine::InterceptDecision& decision,
                         const std::shared_ptr<const void>& payload) override;
  septic::engine::InterceptDecision on_prepared_exec(
      const septic::engine::QueryEvent& event,
      const septic::engine::InterceptDecision& decision,
      const std::shared_ptr<const void>& payload,
      const std::vector<septic::sql::Value>& params) override;
  void attach_digest_cache(
      std::shared_ptr<const septic::engine::QueryDigestCache> cache) override;

 private:
  std::shared_ptr<septic::core::Septic> inner_;
};

}  // namespace perfbench
