#include "trace.h"

#include <algorithm>
#include <climits>
#include <cstdio>

namespace perfbench {

namespace {
thread_local Tracer::ThreadBuf* t_buf = nullptr;
}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kExecute: return "engine.execute";
    case Layer::kOnQuery: return "septic.on_query";
    case Layer::kOnQueryReplayed: return "septic.on_query_replayed";
    case Layer::kOnPreparedExec: return "septic.on_prepared_exec";
    case Layer::kClientQuery: return "net.client_query";
    case Layer::kClientCommit: return "net.client_commit";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  if (!t_buf) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->spans.reserve(1u << 16);
    std::lock_guard lock(mu_);
    t_buf = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *t_buf;
}

void Tracer::set_thread_sampled(bool sampled) { local().skip = !sampled; }

std::array<LayerTotals, kLayerCount> Tracer::totals() const {
  std::array<LayerTotals, kLayerCount> out{};
  std::lock_guard lock(mu_);
  for (const auto& buf : bufs_) {
    const std::vector<Span>& spans = buf->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      LayerTotals& t = out[s.layer];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - static_cast<double>(child_ns[i]);
    }
  }
  return out;
}

uint64_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : bufs_) n += buf->spans.size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : bufs_) n += buf->dropped;
  return n;
}

bool Tracer::dump(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard lock(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& buf : bufs_) {
    for (const Span& s : buf->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "thread\tspan\tparent\tlayer\tstart_ns\tdur_ns\n");
  for (size_t t = 0; t < bufs_.size(); ++t) {
    const std::vector<Span>& spans = bufs_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%u\t%s\t%lld\t%lld\n", t, i + 1, s.parent,
                   layer_name(static_cast<Layer>(s.layer)),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - s.start_ns));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Layer layer) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  Tracer::ThreadBuf& buf = tracer.local();
  if (buf.skip) return;
  if (buf.spans.size() >= Tracer::kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf_ = &buf;
  idx_ = buf.spans.size();
  buf.spans.push_back(Span{now_ns(), 0, buf.current, static_cast<uint8_t>(layer)});
  buf.current = static_cast<uint32_t>(idx_ + 1);
}

ScopedSpan::~ScopedSpan() {
  if (!buf_) return;
  Span& s = buf_->spans[idx_];
  s.end_ns = now_ns();
  buf_->current = s.parent;
}

septic::engine::InterceptDecision TracingInterceptor::on_query(
    const septic::engine::QueryEvent& event) {
  ScopedSpan span(Layer::kOnQuery);
  return inner_->on_query(event);
}

septic::engine::InterceptorGenerations TracingInterceptor::generations() const {
  return inner_->generations();
}

void TracingInterceptor::on_query_replayed(
    const septic::engine::QueryEvent& event,
    const septic::engine::InterceptDecision& decision,
    const std::shared_ptr<const void>& payload) {
  ScopedSpan span(Layer::kOnQueryReplayed);
  inner_->on_query_replayed(event, decision, payload);
}

septic::engine::InterceptDecision TracingInterceptor::on_prepared_exec(
    const septic::engine::QueryEvent& event,
    const septic::engine::InterceptDecision& decision,
    const std::shared_ptr<const void>& payload,
    const std::vector<septic::sql::Value>& params) {
  ScopedSpan span(Layer::kOnPreparedExec);
  return inner_->on_prepared_exec(event, decision, payload, params);
}

void TracingInterceptor::attach_digest_cache(
    std::shared_ptr<const septic::engine::QueryDigestCache> cache) {
  inner_->attach_digest_cache(std::move(cache));
}

}  // namespace perfbench
