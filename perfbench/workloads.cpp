// The three workloads: hot-read, adhoc-rw (in-process) and tcp-durable.
// README.md says why each exists and which layer each metric isolates.
#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/unicode.h"
#include "engine/database.h"
#include "engine/error.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "net/client.h"
#include "net/server.h"
#include "perfbench.h"
#include "septic/septic.h"
#include "sqlcore/item.h"
#include "sqlcore/lexer.h"
#include "sqlcore/parser.h"
#include "trace.h"

namespace perfbench {

namespace eng = septic::engine;
namespace core = septic::core;
namespace sql = septic::sql;
namespace net = septic::net;
namespace wal = septic::storage::wal;

namespace {

// --- schema and statement shapes -----------------------------------------

constexpr int64_t kRows = 100000;
// k = ((id - 1) * kStride) mod kRows is a permutation of 0..kRows-1, so
// every k-probe has exactly one answer and every range of width w holds
// exactly w rows.
constexpr int64_t kStride = 7919;
constexpr int64_t kRangeWidth = 100;  // BETWEEN lo AND lo+99
constexpr int64_t kOrderLimit = 10;
constexpr int kSetups = 5;            // setup_s is the median of these

int64_t mod_inverse(int64_t a, int64_t m) {
  int64_t t = 0, nt = 1, r = m, nr = a % m;
  while (nr) {
    int64_t q = r / nr;
    std::tie(t, nt) = std::make_pair(nt, t - q * nt);
    std::tie(r, nr) = std::make_pair(nr, r - q * nr);
  }
  return t < 0 ? t + m : t;
}
const int64_t kStrideInv = mod_inverse(kStride, kRows);

int64_t k_of(int64_t id) { return ((id - 1) * kStride) % kRows; }
int64_t id_of(int64_t k) { return (k * kStrideInv) % kRows + 1; }

enum class Shape : uint8_t { kPk, kK, kRange, kOrder, kUpdate, kAttack };
constexpr size_t kReadShapes = 4;  // kPk .. kOrder
const char* const kReadShapeNames[kReadShapes] = {"pk", "k", "range", "order"};

struct Stmt {
  std::string sql;
  Shape shape = Shape::kPk;
  int64_t arg = 0;
};

Stmt read_stmt(Shape shape, int64_t arg) {
  Stmt s;
  s.shape = shape;
  s.arg = arg;
  const std::string a = std::to_string(arg);
  switch (shape) {
    case Shape::kPk:
      s.sql = "SELECT id, k, name FROM big WHERE id = " + a;
      break;
    case Shape::kK:
      s.sql = "SELECT id, k, name FROM big WHERE k = " + a;
      break;
    case Shape::kRange:
      s.sql = "SELECT COUNT(*) FROM big WHERE k BETWEEN " + a + " AND " +
              std::to_string(arg + kRangeWidth - 1);
      break;
    case Shape::kOrder:
      s.sql = "SELECT id, k FROM big WHERE k >= " + a + " ORDER BY k LIMIT " +
              std::to_string(kOrderLimit);
      break;
    default:
      break;
  }
  return s;
}

/// A read with a fresh literal, equally likely to be any of the four
/// shapes.
Stmt random_read(Rng& rng) {
  switch (rng.below(kReadShapes)) {
    case 0: return read_stmt(Shape::kPk, 1 + static_cast<int64_t>(rng.below(kRows)));
    case 1: return read_stmt(Shape::kK, static_cast<int64_t>(rng.below(kRows)));
    case 2:
      return read_stmt(Shape::kRange,
                       static_cast<int64_t>(rng.below(kRows - kRangeWidth + 1)));
    default:
      return read_stmt(Shape::kOrder,
                       static_cast<int64_t>(rng.below(kRows - kOrderLimit + 1)));
  }
}

/// ~1k distinct byte-exact reads drawn from the seed: the warm statement
/// set of hot-read and of tcp-durable's QUERYs.
std::vector<Stmt> warm_read_set(uint64_t seed) {
  Rng rng(seed);
  std::vector<Stmt> set;
  std::unordered_set<std::string> seen;
  while (set.size() < 1024) {
    Stmt s = random_read(rng);
    if (seen.insert(s.sql).second) set.push_back(std::move(s));
  }
  return set;
}

std::string fresh_name(Rng& rng, size_t hex_digits) {
  static const char kHex[] = "0123456789abcdef";
  std::string s = "w";
  s.reserve(hex_digits + 1);
  while (s.size() <= hex_digits) {
    uint64_t x = rng.next();
    for (int i = 0; i < 16 && s.size() <= hex_digits; ++i, x >>= 4) s += kHex[x & 15];
  }
  return s;
}

Stmt update_stmt(int64_t id, const std::string& name) {
  Stmt s;
  s.shape = Shape::kUpdate;
  s.arg = id;
  s.sql = "UPDATE big SET name = '" + name + "' WHERE id = " + std::to_string(id);
  return s;
}

/// One attack of the paper's classes, shaped on a trained statement with
/// fresh literals. Every one must come back BLOCKED.
Stmt attack_stmt(Rng& rng) {
  Stmt s;
  s.shape = Shape::kAttack;
  const std::string id = std::to_string(1 + rng.below(kRows));
  const std::string k = std::to_string(rng.below(kRows));
  switch (rng.below(6)) {
    case 0:  // tautology
      s.sql = "SELECT id, k, name FROM big WHERE id = " + id + " OR 1=1";
      break;
    case 1:  // UNION
      s.sql = "SELECT id, k, name FROM big WHERE k = " + k +
              " UNION SELECT id, k, name FROM big";
      break;
    case 2:  // comment truncation: the value closes the string, -- drops WHERE
      s.sql = "UPDATE big SET name = 'x" + k + "' -- ' WHERE id = " + id;
      break;
    case 3:  // U+02BC confusable quote, decoded to ' by charset conversion
      s.sql = "UPDATE big SET name = 'p" + k + "\xCA\xBC OR 1=1 -- ' WHERE id = " + id;
      break;
    case 4:  // stored XSS in the written value
      s.sql = "UPDATE big SET name = '<script>alert(" + k +
              ")</script>' WHERE id = " + id;
      break;
    default:  // stored OS-command injection in the written value
      s.sql = "UPDATE big SET name = 'a; rm -rf /tmp/" + k + "' WHERE id = " + id;
      break;
  }
  return s;
}

bool name_ok(const sql::Value& v) {
  if (v.type() != sql::ValueType::kString) return false;
  const std::string& s = v.as_string();
  return !s.empty() && (s[0] == 'n' || s[0] == 'w');
}

bool int_is(const sql::Value& v, int64_t want) {
  return v.type() == sql::ValueType::kInt && v.as_int() == want;
}

/// Checks a read's rows against the closed-form contents of `big`.
bool check_read(const Stmt& st, const eng::ResultSet& rs, std::string& why) {
  const auto& rows = rs.rows;
  switch (st.shape) {
    case Shape::kPk:
      if (rows.size() == 1 && rows[0].size() == 3 && int_is(rows[0][0], st.arg) &&
          int_is(rows[0][1], k_of(st.arg)) && name_ok(rows[0][2])) {
        return true;
      }
      break;
    case Shape::kK:
      if (rows.size() == 1 && rows[0].size() == 3 &&
          int_is(rows[0][0], id_of(st.arg)) && int_is(rows[0][1], st.arg) &&
          name_ok(rows[0][2])) {
        return true;
      }
      break;
    case Shape::kRange:
      if (rows.size() == 1 && rows[0].size() == 1 && int_is(rows[0][0], kRangeWidth)) {
        return true;
      }
      break;
    case Shape::kOrder: {
      bool ok = rows.size() == static_cast<size_t>(kOrderLimit);
      for (size_t i = 0; ok && i < rows.size(); ++i) {
        const int64_t k = st.arg + static_cast<int64_t>(i);
        ok = rows[i].size() == 2 && int_is(rows[i][0], id_of(k)) && int_is(rows[i][1], k);
      }
      if (ok) return true;
      break;
    }
    default:
      break;
  }
  why = "wrong result for: " + st.sql + " -> " + rs.to_text().substr(0, 200);
  return false;
}

/// The same checks on a read's reply over the wire (ResultSet::to_text:
/// a header line, then one tab-separated line per row).
bool check_read_text(const Stmt& st, const std::string& reply) {
  const auto row = [](int64_t id, int64_t k) {
    return std::to_string(id) + "\t" + std::to_string(k);
  };
  switch (st.shape) {
    case Shape::kPk:
    case Shape::kK: {
      const int64_t id = st.shape == Shape::kPk ? st.arg : id_of(st.arg);
      const std::string head = "id\tk\tname\n" + row(id, k_of(id)) + "\t";
      if (reply.compare(0, head.size(), head) != 0) return false;
      if (reply.size() < head.size() + 2 || reply.back() != '\n') return false;
      const char c = reply[head.size()];
      return (c == 'n' || c == 'w') && reply.find('\n', head.size()) == reply.size() - 1;
    }
    case Shape::kRange: {
      const size_t eol = reply.find('\n');
      return eol != std::string::npos &&
             reply.compare(eol + 1, std::string::npos, std::to_string(kRangeWidth) + "\n") == 0;
    }
    case Shape::kOrder: {
      std::string want = "id\tk\n";
      for (int64_t k = st.arg; k < st.arg + kOrderLimit; ++k) want += row(id_of(k), k) + "\n";
      return reply == want;
    }
    default:
      return false;
  }
}

// --- engine setup ---------------------------------------------------------

struct Engine {
  std::unique_ptr<eng::Database> db;
  std::shared_ptr<core::Septic> septic;
  septic::storage::Table* big = nullptr;
};

void load_rows(eng::Database& db) {
  db.execute_admin(
      "CREATE TABLE big (id INT PRIMARY KEY AUTO_INCREMENT, k INT, name TEXT)");
  for (int64_t i = 0; i < kRows; i += 256) {
    std::string sql = "INSERT INTO big (k, name) VALUES ";
    for (int64_t id = i + 1; id <= std::min(kRows, i + 256); ++id) {
      if (id > i + 1) sql += ", ";
      sql += '(';
      sql += std::to_string(k_of(id));
      sql += ", 'n";
      sql += std::to_string(id);
      sql += "')";
    }
    db.execute_admin(sql);
  }
  db.execute_admin("CREATE INDEX idx_k ON big (k)");
}

const char* const kUpdateTemplate = "UPDATE big SET name = ? WHERE id = ?";

/// Load, train (one statement per shape, EXPLAIN of each read shape, the
/// prepared UPDATE template), switch to prevention, warm the digest cache
/// with `warm`, and — on a durable engine — take the initial checkpoint.
/// EXPLAIN rows that report a full scan are added to `scan_plans`.
Engine build_engine(const std::string& dir, const std::vector<std::string>& warm,
                    uint64_t& scan_plans) {
  Engine e;
  if (dir.empty()) {
    e.db = std::make_unique<eng::Database>();
  } else {
    wal::DurableStorage::Options opts;
    opts.dir = dir;
    e.db = std::make_unique<eng::Database>(opts);
  }
  load_rows(*e.db);
  e.big = e.db->catalog().find("big");

  e.septic = std::make_shared<core::Septic>();
  e.db->set_interceptor(e.septic);
  eng::Session trainer("perfbench-trainer");
  for (Shape shape : {Shape::kPk, Shape::kK, Shape::kRange, Shape::kOrder}) {
    const std::string sql = read_stmt(shape, 5).sql;
    e.db->execute(trainer, sql);
    eng::ResultSet plan = e.db->execute(trainer, "EXPLAIN " + sql);
    for (const auto& row : plan.rows) {
      if (row.size() > 1 && row[1].to_display() == "scan") ++scan_plans;
    }
  }
  e.db->execute(trainer, update_stmt(5, "n5").sql);
  e.db->prepare(trainer, kUpdateTemplate);
  e.septic->set_mode(core::Mode::kPrevention);

  eng::Session warmer("perfbench-warm");
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : warm) e.db->execute(warmer, sql);
  }
  if (!dir.empty()) e.db->checkpoint_now();
  return e;
}

/// Builds the engine kSetups times and keeps the last; returns the median
/// setup time. Durable engines get a fresh directory each time.
Engine setup_engine(const Options& o, bool durable, const std::vector<std::string>& warm,
                    Report& r, uint64_t& scan_plans, std::string& dir_out) {
  std::vector<double> times;
  Engine kept;
  for (int i = 0; i < kSetups; ++i) {
    if (kept.db) {
      kept = Engine{};
      if (!dir_out.empty()) std::filesystem::remove_all(dir_out);
    }
    dir_out.clear();
    if (durable) {
      dir_out = o.workdir + "/data-" + std::to_string(i);
      std::filesystem::remove_all(dir_out);
      std::filesystem::create_directories(dir_out);
    }
    uint64_t scans = 0;
    auto t0 = Clock::now();
    kept = build_engine(dir_out, warm, scans);
    times.push_back(seconds_since(t0));
    scan_plans += scans;
  }
  r.set("setup_s", median(times), "s");
  std::printf("setup_s runs:");
  for (double t : times) std::printf(" %.4f", t);
  std::printf("\n");
  return kept;
}

// --- configuration fingerprint ---------------------------------------------

/// Records the measured configuration and compares it with the defaults
/// pinned here (their values when this benchmark was defined). Prevention
/// mode is the only allowed difference, so no change can look faster by
/// flipping a default.
void fingerprint(const Engine& e, const net::ServerOptions* server, const Options& o,
                 Report& r) {
  const core::Config c = e.septic->config();
  const size_t budget = e.db->digest_cache()->byte_budget();
#ifdef SEPTIC_DISABLE_FAILPOINTS
  const bool failpoints = false;
#else
  const bool failpoints = true;
#endif
  auto expect = [&](bool same, const std::string& what) {
    if (!same) r.nondefault.push_back(what);
  };
  expect(std::string(PERFBENCH_BUILD_TYPE) == "Release", "build type is not Release");
  expect(!failpoints, "failpoints compiled in");
  expect(c.mode == core::Mode::kPrevention, "mode is not PREVENTION");
  expect(c.fail_policy == core::FailPolicy::kFailClosed, "fail_policy");
  expect(c.detect_sqli, "detect_sqli");
  expect(c.detect_stored, "detect_stored");
  expect(c.incremental_learning, "incremental_learning");
  expect(!c.strict_numeric_types, "strict_numeric_types");
  expect(!c.abort_txn_on_block, "abort_txn_on_block");
  expect(c.log_processed_queries, "log_processed_queries");
  expect(budget == (size_t{8} << 20), "digest budget");
  expect(e.db->charset_conversion(), "charset_conversion");
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"threads\": %d, \"build_type\": \"%s\", \"failpoints\": %s, "
                "\"config\": {\"mode\": \"%s\", \"fail_policy\": \"%s\", \"detect_sqli\": %s, "
                "\"detect_stored\": %s, \"incremental_learning\": %s, "
                "\"strict_numeric_types\": %s, \"abort_txn_on_block\": %s, "
                "\"log_processed_queries\": %s}, \"digest_budget\": %zu, "
                "\"charset_conversion\": %s, ",
                std::thread::hardware_concurrency(), o.threads, PERFBENCH_BUILD_TYPE,
                failpoints ? "true" : "false", core::mode_name(c.mode),
                core::fail_policy_name(c.fail_policy), c.detect_sqli ? "true" : "false",
                c.detect_stored ? "true" : "false", c.incremental_learning ? "true" : "false",
                c.strict_numeric_types ? "true" : "false",
                c.abort_txn_on_block ? "true" : "false",
                c.log_processed_queries ? "true" : "false", budget,
                e.db->charset_conversion() ? "true" : "false");
  std::string fp = buf;
  if (server) {
    const net::ServerOptions& s = *server;
    expect(s.max_connections == 256 && s.idle_timeout_ms == 0 &&
               s.max_frame_size == 16u * 1024 * 1024 && s.worker_threads == 8 &&
               s.max_prepared_per_connection == 64,
           "ServerOptions");
    std::snprintf(buf, sizeof buf,
                  "\"server_options\": {\"max_connections\": %zu, \"idle_timeout_ms\": %d, "
                  "\"max_frame_size\": %u, \"worker_threads\": %zu, "
                  "\"max_prepared_per_connection\": %zu}, ",
                  s.max_connections, s.idle_timeout_ms, s.max_frame_size, s.worker_threads,
                  s.max_prepared_per_connection);
    fp += buf;
    const wal::DurableStorage::Options d;
    expect(e.db->durability_mode() == wal::DurabilityMode::kFull, "durability mode");
    expect(d.checkpoint_wal_bytes == (uint64_t{4} << 20) && d.page_cache_pages == 64,
           "DurableStorage::Options");
    std::snprintf(buf, sizeof buf,
                  "\"durability\": {\"mode\": \"%s\", \"checkpoint_wal_bytes\": %" PRIu64
                  ", \"page_cache_pages\": %zu}, ",
                  wal::durability_mode_name(e.db->durability_mode()), d.checkpoint_wal_bytes,
                  d.page_cache_pages);
    fp += buf;
  } else {
    fp += "\"server_options\": null, \"durability\": null, ";
  }
  std::snprintf(buf, sizeof buf, "\"workload\": \"%s\", \"seed\": %" PRIu64 "}",
                o.workload.c_str(), o.seed);
  fp += buf;
  r.fingerprint = fp;
}

// --- counters read around a measured window -------------------------------

struct Counters {
  core::SepticStats septic;
  eng::DigestCacheStats digest;
  septic::engine::txn::TxnStats txn;
  wal::DurabilityStats dur;
  uint64_t blocked = 0;
  uint64_t reverdicts = 0;
  double cpu_s = 0;
  Clock::time_point at;

  static Counters read(const Engine& e) {
    Counters c;
    c.septic = e.septic->stats();
    c.digest = e.db->digest_cache_stats();
    c.txn = e.db->txn_stats();
    c.dur = e.db->durability_stats();
    c.blocked = e.db->blocked_count();
    c.reverdicts = e.db->prepared_reverdicts();
    c.cpu_s = process_cpu_s();
    c.at = Clock::now();
    return c;
  }
};

/// Prevention, not learning: over a measured window no model is created
/// and no prepared handle re-verdicts; the engine blocked exactly the
/// attacks sent.
void check_window(const Counters& a, const Counters& b, uint64_t attacks_sent,
                  Violations& v) {
  if (uint64_t n = b.septic.models_created - a.septic.models_created) {
    v.add("models_created rose by " + std::to_string(n) + " in the measured window");
  }
  if (uint64_t n = b.reverdicts - a.reverdicts) {
    v.add("prepared_reverdicts rose by " + std::to_string(n) + " in the measured window");
  }
  if (b.blocked - a.blocked != attacks_sent) {
    v.add("blocked_count delta " + std::to_string(b.blocked - a.blocked) +
          " != attacks sent " + std::to_string(attacks_sent));
  }
}

// --- per-layer stage replay -----------------------------------------------

struct StageCosts {
  double convert_us = 0, lex_us = 0, parse_us = 0, item_stack_us = 0;
  double validate_us = 0, digest_lookup_us = 0, plan_us = 0;
  uint64_t scan_plans = 0;
};

/// Replays `sample` uncontended through each front-end stage's public
/// function, timing each stage over the whole sample (mean per call, best
/// of three passes so one preempted pass does not set the figure).
StageCosts replay_stages(const Engine& e, const std::vector<Stmt>& sample) {
  StageCosts c;
  if (sample.empty()) return c;
  const double n = static_cast<double>(sample.size());
  std::vector<std::string> converted(sample.size());
  std::vector<sql::ParsedQuery> parsed(sample.size());
  auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int pass = 0; pass < 3; ++pass) {
      const int64_t t0 = now_ns();
      body();
      best = std::min(best, static_cast<double>(now_ns() - t0));
    }
    return best / n / 1e3;
  };
  c.convert_us = best_of([&] {
    for (size_t i = 0; i < sample.size(); ++i) {
      converted[i] = septic::common::server_charset_convert(sample[i].sql);
    }
  });
  size_t tokens = 0;
  c.lex_us = best_of([&] {
    for (const std::string& s : converted) tokens += sql::lex(s).tokens.size();
  });
  c.parse_us = best_of([&] {
    for (size_t i = 0; i < converted.size(); ++i) parsed[i] = sql::parse(converted[i]);
  });
  c.validate_us = best_of([&] {
    for (const auto& p : parsed) eng::validate_statement(e.db->catalog(), p.statement);
  });
  size_t nodes = 0;
  c.item_stack_us = best_of([&] {
    for (const auto& p : parsed) nodes += sql::build_item_stack(p.statement).nodes.size();
  });
  auto cache = e.db->digest_cache();
  size_t found = 0;
  c.digest_lookup_us = best_of([&] {
    for (const std::string& s : converted) found += cache->lookup(s) != nullptr;
  });
  // Only benign reads are planned: an attack's plan is never executed.
  std::vector<const sql::SelectStmt*> selects;
  for (size_t i = 0; i < parsed.size(); ++i) {
    const auto* sel = std::get_if<sql::SelectPtr>(&parsed[i].statement);
    if (sel && sample[i].shape <= Shape::kOrder) selects.push_back(sel->get());
  }
  if (!selects.empty()) {
    std::vector<eng::AccessPlan> plans(selects.size());
    c.plan_us = best_of([&] {
      for (size_t i = 0; i < selects.size(); ++i) {
        plans[i] = eng::plan_select_access(*e.big, *selects[i]);
      }
    }) * n / static_cast<double>(selects.size());
    for (const auto& p : plans) c.scan_plans += p.kind == eng::AccessPlan::Kind::kFullScan;
  }
  std::printf("stage replay: %zu statements, %zu tokens, %zu stack nodes, "
              "%zu cache entries found\n",
              sample.size(), tokens / 3, nodes / 3, found / 3);
  return c;
}

// --- latency reporting ------------------------------------------------------

/// Read latencies kept per shape: the shapes' costs differ by an order of
/// magnitude, so one median over all four would sit on the edge between
/// the cheap and the costly pair and jump between them from run to run.
struct ReadLogs {
  std::array<LatencyLog, kReadShapes> by_shape;

  LatencyLog& operator[](Shape s) { return by_shape[static_cast<size_t>(s)]; }
  void merge(const ReadLogs& o) {
    for (size_t i = 0; i < kReadShapes; ++i) by_shape[i].merge(o.by_shape[i]);
  }
  LatencyLog all() const {
    LatencyLog out;
    for (const LatencyLog& l : by_shape) out.merge(l);
    return out;
  }
};

void print_latency(const char* what, const LatencySummary& s) {
  std::printf("%s latency: n=%" PRIu64 " p50=%.2fus p99=%.2fus mean=%.2fus\n", what, s.count,
              s.p50_us, s.p99_us, s.mean_us);
}

/// read_<shape>_p50_us per shape, and read_p50_us / read_p99_us over
/// every read.
void report_reads(Report& r, const ReadLogs& reads) {
  for (size_t i = 0; i < kReadShapes; ++i) {
    const LatencySummary s = reads.by_shape[i].summarize();
    const std::string name = std::string("read_") + kReadShapeNames[i];
    r.set(name + "_p50_us", s.p50_us, "us", s.count);
    print_latency(name.c_str(), s);
  }
  const LatencySummary all = reads.all().summarize();
  r.set("read_p50_us", all.p50_us, "us", all.count);
  r.set("read_p99_us", all.p99_us, "us", all.count);
  print_latency("read", all);
}

void report_writes(Report& r, const LatencyLog& writes) {
  const LatencySummary s = writes.summarize();
  r.set("write_p50_us", s.p50_us, "us", s.count);
  r.set("write_p99_us", s.p99_us, "us", s.count);
  print_latency("write", s);
}

// --- in-process closed loop -----------------------------------------------

struct ThreadOut {
  ReadLogs reads;
  LatencyLog writes;
  uint64_t attempted = 0, ok = 0, attacks_sent = 0;
  std::vector<Stmt> sample;  // every 64th statement, for stage replay
  uint64_t backlog_samples = 0, backlog_hits = 0;
};

/// Writes the next statement into `out` (reusing its buffer).
using OpGen = void (*)(Rng&, const std::vector<Stmt>&, Stmt& out);

struct WindowResult {
  Counters before, after;
  double seconds = 0;
  uint64_t attacks = 0, attempted = 0, ok = 0;
  ReadLogs reads;
  LatencyLog writes;
  std::vector<Stmt> sample;
  double backlog_share = 0;
  double peak_threads = 0;
};

/// `threads` generator threads, each with its own session, run `gen` in a
/// closed loop on Database::execute for `secs` seconds and check every
/// reply. With tracing on, one request in Tracer::kSampleEvery is traced.
WindowResult closed_loop(Engine& e, const Options& o, double secs, uint64_t stream,
                         const std::vector<Stmt>& set, OpGen gen, bool traced,
                         Violations& v) {
  WindowResult w;
  std::vector<ThreadOut> outs(static_cast<size_t>(o.threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> start_ns{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < o.threads; ++t) {
    pool.emplace_back([&, t] {
      ThreadOut& out = outs[static_cast<size_t>(t)];
      Rng rng(o.seed * 1000003 + stream * 101 + static_cast<uint64_t>(t));
      eng::Session session("perfbench");
      Tracer& tracer = Tracer::get();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t deadline = start_ns.load() + static_cast<int64_t>(secs * 1e9);
      std::string why;
      Stmt st;
      for (uint64_t i = 0;; ++i) {
        gen(rng, set, st);
        if (i % 64 == 0 && out.sample.size() < 512) out.sample.push_back(st);
        if (traced) tracer.set_thread_sampled(i % Tracer::kSampleEvery == 0);
        const int64_t t0 = now_ns();
        if (t0 >= deadline) break;
        ++out.attempted;
        if (st.shape == Shape::kAttack) ++out.attacks_sent;
        bool ok = false;
        int64_t t1 = 0;
        try {
          eng::ResultSet rs;
          {
            ScopedSpan span(Layer::kExecute);
            rs = e.db->execute(session, st.sql);
          }
          t1 = now_ns();
          if (st.shape == Shape::kAttack) {
            v.add("attack not blocked: " + st.sql);
          } else if (st.shape == Shape::kUpdate) {
            ok = rs.affected_rows == 1;
            if (!ok) v.add("UPDATE affected " + std::to_string(rs.affected_rows) + ": " + st.sql);
          } else {
            ok = check_read(st, rs, why);
            if (!ok) v.add(why);
          }
        } catch (const eng::DbError& err) {
          t1 = now_ns();
          if (st.shape == Shape::kAttack && err.code() == eng::ErrorCode::kBlocked) {
            ok = true;
          } else {
            v.add(std::string(st.shape == Shape::kAttack ? "attack got " : "benign got ") +
                  eng::error_code_name(err.code()) + " (" + err.what() + "): " + st.sql);
          }
        } catch (const std::exception& err) {
          t1 = now_ns();
          v.add(std::string("execute threw: ") + err.what() + ": " + st.sql);
        }
        // Attacks count toward throughput, not toward a latency.
        LatencyLog* log = st.shape == Shape::kUpdate   ? &out.writes
                          : st.shape == Shape::kAttack ? nullptr
                                                       : &out.reads[st.shape];
        if (ok) ++out.ok;
        if (log && ok) log->add(t1 - t0);
        if (log && !ok) log->add_failed();
        if (t == 0 && e.big) {
          ++out.backlog_samples;
          out.backlog_hits += e.big->has_old_versions();
        }
      }
    });
  }
  while (ready.load() < o.threads) std::this_thread::yield();
  w.before = Counters::read(e);
  start_ns.store(now_ns());
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(secs / 2));
  w.peak_threads = proc_status("Threads");
  for (auto& th : pool) th.join();
  w.after = Counters::read(e);
  w.seconds = std::chrono::duration<double>(w.after.at - w.before.at).count();
  for (const ThreadOut& out : outs) {
    w.attempted += out.attempted;
    w.ok += out.ok;
    w.attacks += out.attacks_sent;
    w.reads.merge(out.reads);
    w.writes.merge(out.writes);
    w.sample.insert(w.sample.end(), out.sample.begin(), out.sample.end());
    if (out.backlog_samples) {
      w.backlog_share = static_cast<double>(out.backlog_hits) / out.backlog_samples;
    }
  }
  return w;
}

void hot_gen(Rng& rng, const std::vector<Stmt>& set, Stmt& out) {
  const Stmt& s = set[rng.below(set.size())];
  out.sql.assign(s.sql);
  out.shape = s.shape;
  out.arg = s.arg;
}

void adhoc_gen(Rng& rng, const std::vector<Stmt>&, Stmt& out) {
  const uint64_t roll = rng.below(1000);
  if (roll < 5) {  // 0.5%
    out = attack_stmt(rng);
  } else if (roll < 105) {  // 10%
    const int64_t id = 1 + static_cast<int64_t>(rng.below(kRows));
    out = update_stmt(id, fresh_name(rng, 16));
  } else {
    out = random_read(rng);
  }
}

/// Tracing overhead in percent: the traced window's read median over the
/// untraced one's, averaged over the four shapes. Medians, because one
/// checkpoint stall in either window would swing a mean.
double trace_overhead_pct(const ReadLogs& untraced, const ReadLogs& traced) {
  double sum = 0;
  int n = 0;
  for (size_t i = 0; i < kReadShapes; ++i) {
    const double u = untraced.by_shape[i].summarize().p50_us;
    const double t = traced.by_shape[i].summarize().p50_us;
    if (u > 0 && t > 0) {
      sum += t / u;
      ++n;
    }
  }
  return n ? (sum / n - 1) * 100 : 0;
}

void report_layers_inproc(Report& r, const WindowResult& w,
                          const StageCosts& st, uint64_t setup_scans) {
  const auto tot = Tracer::get().totals();
  const auto& ex = tot[static_cast<size_t>(Layer::kExecute)];
  const auto& oq = tot[static_cast<size_t>(Layer::kOnQuery)];
  const auto& rp = tot[static_cast<size_t>(Layer::kOnQueryReplayed)];
  const auto& pe = tot[static_cast<size_t>(Layer::kOnPreparedExec)];
  const double septic_ns = oq.self_ns + rp.self_ns + pe.self_ns;
  r.set("common.charset_convert_us", st.convert_us, "us");
  r.set("sqlcore.lex_us", st.lex_us, "us");
  r.set("sqlcore.parse_us", st.parse_us, "us");
  r.set("sqlcore.item_stack_us", st.item_stack_us, "us");
  r.set("engine.validate_us", st.validate_us, "us");
  r.set("engine.digest_lookup_us", st.digest_lookup_us, "us");
  r.set("engine.plan_us", st.plan_us, "us");
  r.set("engine.scan_plans", static_cast<double>(st.scan_plans + setup_scans), "count");
  r.set("septic.on_query_us", oq.mean_us(), "us", oq.count);
  r.set("septic.on_query_replayed_us", rp.mean_us(), "us", rp.count);
  r.set("septic.on_prepared_exec_us", pe.mean_us(), "us", pe.count);
  r.set("septic.share", ex.total_ns > 0 ? septic_ns / ex.total_ns : 0, "ratio");
  r.set("engine.execute_self_us", ex.self_mean_us(), "us", ex.count);
  r.set("storage.vacuum_backlog_share", w.backlog_share, "ratio");
}

void report_counter_layers(Report& r, const Counters& a, const Counters& b,
                           uint64_t attempted, double peak_threads) {
  const double hits = static_cast<double>(b.digest.hits - a.digest.hits);
  const double misses = static_cast<double>(b.digest.misses - a.digest.misses);
  r.set("engine.digest_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  r.set("engine.digest_evictions_per_kop",
        attempted ? (b.digest.evictions - a.digest.evictions) * 1000.0 / attempted : 0,
        "count");
  r.set("septic.models_created",
        static_cast<double>(b.septic.models_created - a.septic.models_created), "count");
  r.set("septic.events_dropped",
        static_cast<double>(b.septic.events_dropped - a.septic.events_dropped), "count");
  const double commits = static_cast<double>(b.txn.committed - a.txn.committed);
  const double conflicts = static_cast<double>(b.txn.conflicts - a.txn.conflicts);
  r.set("txn.conflict_ratio", commits + conflicts > 0 ? conflicts / (commits + conflicts) : 0,
        "ratio");
  r.set("proc.threads", peak_threads, "count");
}

void run_inprocess(const Options& o, Report& r, bool hot) {
  Violations& v = r.violations;
  std::vector<Stmt> set;
  std::vector<std::string> warm;
  if (hot) {
    set = warm_read_set(o.seed);
    for (const Stmt& s : set) warm.push_back(s.sql);
  }
  uint64_t setup_scans = 0;
  std::string dir;
  Engine e = setup_engine(o, false, warm, r, setup_scans, dir);
  if (setup_scans) v.add("EXPLAIN reports a full scan for a workload shape");
  fingerprint(e, nullptr, o, r);
  const OpGen gen = hot ? hot_gen : adhoc_gen;

  // The untraced window (the whole run when --trace 0).
  const double untraced_secs = o.trace ? o.seconds / 2 : o.seconds;
  WindowResult w = closed_loop(e, o, untraced_secs, 1, set, gen, false, v);
  check_window(w.before, w.after, w.attacks, v);
  r.attempted += w.attempted;
  r.failed += w.attempted - w.ok;
  r.set("throughput_ops", w.ok / w.seconds, "ops/s", w.ok);
  report_reads(r, w.reads);
  if (!hot) report_writes(r, w.writes);
  r.set("cpu_us_per_op", w.ok ? (w.after.cpu_s - w.before.cpu_s) * 1e6 / w.ok : 0, "us", w.ok);
  std::printf("window: %.3fs, %" PRIu64 " ok of %" PRIu64 " attempted, %" PRIu64
              " attacks sent, digest hits %" PRIu64 " misses %" PRIu64 "\n",
              w.seconds, w.ok, w.attempted, w.attacks,
              w.after.digest.hits - w.before.digest.hits,
              w.after.digest.misses - w.before.digest.misses);

  if (o.trace) {
    // Traced window: the same engine behind the forwarding decorator.
    // set_interceptor retires every cached verdict, so hot-read re-warms.
    e.db->set_interceptor(std::make_shared<TracingInterceptor>(e.septic));
    eng::Session warmer("perfbench-warm");
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sql : warm) e.db->execute(warmer, sql);
    }
    Tracer::get().set_enabled(true);
    WindowResult tw = closed_loop(e, o, o.seconds - untraced_secs, 2, set, gen, true, v);
    Tracer::get().set_enabled(false);
    check_window(tw.before, tw.after, tw.attacks, v);
    r.attempted += tw.attempted;
    r.failed += tw.attempted - tw.ok;
    const StageCosts st = replay_stages(e, tw.sample);
    if (st.scan_plans) v.add("planner chose a full scan for a sampled statement");
    report_layers_inproc(r, tw, st, setup_scans);
    report_counter_layers(r, tw.before, tw.after, tw.attempted, tw.peak_threads);
    // An autocommit UPDATE is its own commit: its whole execute span.
    const LatencySummary tws = tw.writes.summarize();
    r.set("txn.commit_us", tws.mean_us, "us", tws.count);
    const double overhead = trace_overhead_pct(w.reads, tw.reads);
    r.set("trace.overhead_pct", overhead, "%");
    std::printf("tracing overhead: read p50 %+.1f%% (traced vs untraced, mean over shapes), "
                "throughput %.0f vs %.0f ops/s; %" PRIu64 " spans, %" PRIu64 " dropped\n",
                overhead, tw.ok / tw.seconds, w.ok / w.seconds, Tracer::get().span_count(),
                Tracer::get().dropped());
    const std::string path = o.workdir + "/spans-" + o.workload + ".tsv";
    if (Tracer::get().dump(path)) std::printf("span dump: %s\n", path.c_str());
  }
  r.set("rss_mb", proc_status("VmHWM") / 1024.0, "MB");
}

// --- tcp-durable: a ladder of rates over real TCP -------------------------

// Each write transaction updates two rows with names of this many hex
// digits, so a run appends enough WAL to pass the default checkpoint
// threshold (4 MiB) several times.
constexpr size_t kTcpNameHex = 6000;
// The pinned read_p99_us limit a ladder rate must meet to count as
// sustained, and the lateness of the last send that counts as a growing
// backlog.
constexpr double kReadP99LimitUs = 50000;
constexpr double kBacklogLimitUs = 50000;
// The ladder, in ops/s over all connections. The first rate is the
// reference rate the read/write latencies are measured at.
struct Rung {
  double rate = 0;
  double share = 0;  // of the run's measured seconds
};
const Rung kLadder[] = {{200, 0.55}, {300, 0.15}, {400, 0.15}, {500, 0.15}};
// Shares of the offered ops: warm QUERYs and write transactions.
constexpr double kReadShare = 0.75;

/// One connection and its generator thread. Half the connections send only
/// reads and half only write transactions, so a read never waits in its
/// own connection behind a COMMIT; together they offer 75% reads and 25%
/// write transactions.
struct TcpConn {
  bool writer = false;
  int peer = 0;   // index among the connections of the same kind
  int peers = 1;  // connections of the same kind
  std::unique_ptr<net::Client> client;
  uint64_t upd = 0;  // the prepared UPDATE (writers)
  Rng rng{0};
  std::unordered_map<int64_t, std::string> acked;  // id -> name of acked COMMITs
};

struct RungOut {
  ReadLogs reads;
  LatencyLog writes;
  std::vector<double> lag_us;
  uint64_t attempted = 0, ok = 0;
  double end_late_us = 0;  // how far behind schedule the last send left
  uint64_t backlog_samples = 0, backlog_hits = 0;

  void merge(const RungOut& o) {
    reads.merge(o.reads);
    writes.merge(o.writes);
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    attempted += o.attempted;
    ok += o.ok;
    end_late_us = std::max(end_late_us, o.end_late_us);
    backlog_samples += o.backlog_samples;
    backlog_hits += o.backlog_hits;
  }
};

bool affected_one(const std::string& reply) {
  return reply.rfind("affected=1", 0) == 0 &&
         (reply.size() == 10 || !std::isdigit(static_cast<unsigned char>(reply[10])));
}

/// Write transactions update the first kWriteKeys rows, so the WAL
/// volume grows with the run while the table (and each checkpoint's size)
/// stays bounded.
constexpr int64_t kWriteKeys = 1024;

/// A write key in this writer's share of the written rows: writers never
/// write the same row, so no COMMIT can meet a write-write CONFLICT.
int64_t own_key(TcpConn& c) {
  return 1 + c.peer + c.peers * static_cast<int64_t>(c.rng.below(kWriteKeys / c.peers));
}

/// BEGIN; EXEC upd; EXEC upd; COMMIT. Returns false (after recording why)
/// on any unexpected reply; acked writes are remembered for the
/// durability check.
bool write_txn(TcpConn& c, Violations& v) {
  const int64_t k1 = own_key(c);
  int64_t k2 = own_key(c);
  if (k2 == k1) k2 = k1 + c.peers <= kWriteKeys ? k1 + c.peers : k1 - c.peers;
  const std::string n1 = fresh_name(c.rng, kTcpNameHex);
  const std::string n2 = fresh_name(c.rng, kTcpNameHex);
  try {
    c.client->query("BEGIN");
    const std::string r1 = c.client->execute(c.upd, {sql::Value(n1), sql::Value(k1)});
    const std::string r2 = c.client->execute(c.upd, {sql::Value(n2), sql::Value(k2)});
    if (!affected_one(r1) || !affected_one(r2)) {
      v.add("EXEC upd replied " + r1 + " / " + r2);
      c.client->query("ROLLBACK");
      return false;
    }
    {
      ScopedSpan span(Layer::kClientCommit);
      c.client->query("COMMIT");
    }
  } catch (const std::exception& e) {
    v.add(std::string("write transaction failed: ") + e.what());
    try {
      c.client->query("ROLLBACK");  // leave no transaction open on the connection
    } catch (const std::exception&) {
    }
    return false;
  }
  c.acked[k1] = n1;
  c.acked[k2] = n2;
  return true;
}

/// One connection's share of a rung. Requests are due every
/// peers / (rate * share) seconds, staggered across the connections of one
/// kind; each is sent when due, or at once when the previous reply came
/// back late, and its latency runs from its due time.
void drive_rung(TcpConn& c, const Rung& rung, double secs, int64_t t_start,
                const std::vector<Stmt>& reads, const septic::storage::Table* big,
                RungOut& out, Violations& v) {
  const int64_t end = t_start + static_cast<int64_t>(secs * 1e9);
  const double share = c.writer ? 1 - kReadShare : kReadShare;
  const double interval = 1e9 * c.peers / (rung.rate * share);
  double due = static_cast<double>(t_start) + interval * c.peer / c.peers;
  for (;;) {
    int64_t now = now_ns();
    if (now < static_cast<int64_t>(due)) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(static_cast<int64_t>(due))));
      now = now_ns();
      out.lag_us.push_back((now - due) / 1e3);
    }
    if (now >= end || due >= end) {
      out.end_late_us = std::max(0.0, (now - due) / 1e3);
      break;
    }
    ++out.attempted;
    bool ok = false;
    Shape shape = Shape::kUpdate;
    if (c.writer) {
      ok = write_txn(c, v);
    } else {
      const Stmt& st = reads[c.rng.below(reads.size())];
      shape = st.shape;
      try {
        std::string reply;
        {
          ScopedSpan span(Layer::kClientQuery);
          reply = c.client->query(st.sql);
        }
        ok = check_read_text(st, reply);
        if (!ok) v.add("wrong reply for " + st.sql + ": " + reply.substr(0, 120));
      } catch (const std::exception& e) {
        v.add("read failed: " + st.sql + ": " + e.what());
      }
    }
    const int64_t done = now_ns();
    LatencyLog& log = c.writer ? out.writes : out.reads[shape];
    if (ok) {
      ++out.ok;
      log.add(done - static_cast<int64_t>(due));
    } else {
      log.add_failed();
    }
    if (!c.writer && c.peer == 0 && big) {
      ++out.backlog_samples;
      out.backlog_hits += big->has_old_versions();
    }
    due += interval;
  }
}

struct TcpWindow {
  std::vector<RungOut> rungs;  // merged over connections, one per rung
  Counters before, after;
  double seconds = 0;
  double peak_threads = 0;
};

TcpWindow tcp_window(Engine& e, std::vector<TcpConn>& conns, const std::vector<Rung>& ladder,
                     double secs, const std::vector<Stmt>& reads, Violations& v) {
  TcpWindow w;
  w.rungs.resize(ladder.size());
  std::vector<std::vector<RungOut>> per(conns.size(), std::vector<RungOut>(ladder.size()));
  std::atomic<size_t> ready{0};
  std::atomic<int64_t> start_ns{0};
  std::vector<std::thread> pool;
  for (size_t ci = 0; ci < conns.size(); ++ci) {
    pool.emplace_back([&, ci] {
      ready.fetch_add(1);
      while (start_ns.load(std::memory_order_acquire) == 0) std::this_thread::yield();
      int64_t t = start_ns.load();
      for (size_t ri = 0; ri < ladder.size(); ++ri) {
        const double rs = secs * ladder[ri].share;
        drive_rung(conns[ci], ladder[ri], rs, t, reads, e.big, per[ci][ri], v);
        t += static_cast<int64_t>(rs * 1e9);
        // Every connection starts the next rung on the same clock edge.
        while (now_ns() < t) std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(t)));
      }
    });
  }
  while (ready.load() < conns.size()) std::this_thread::yield();
  w.before = Counters::read(e);
  start_ns.store(now_ns() + 1000000, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(secs * ladder[0].share / 2));
  w.peak_threads = proc_status("Threads");
  for (auto& th : pool) th.join();
  w.after = Counters::read(e);
  w.seconds = std::chrono::duration<double>(w.after.at - w.before.at).count();
  for (size_t ri = 0; ri < ladder.size(); ++ri) {
    for (const auto& p : per) w.rungs[ri].merge(p[ri]);
  }
  return w;
}

/// Re-verdicts each writer's prepared handle and re-warms the read set
/// after an interceptor swap, outside any measured window.
void rewarm_tcp(Engine& e, std::vector<TcpConn>& conns, const std::vector<std::string>& warm,
                Violations& v) {
  eng::Session warmer("perfbench-warm");
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : warm) e.db->execute(warmer, sql);
  }
  for (TcpConn& c : conns) {
    if (c.writer && !write_txn(c, v)) v.add("re-warm transaction failed");
  }
}

void run_tcp(const Options& o, Report& r) {
  Violations& v = r.violations;
  const std::vector<Stmt> reads = warm_read_set(o.seed);
  std::vector<std::string> warm;
  for (const Stmt& s : reads) warm.push_back(s.sql);
  uint64_t setup_scans = 0;
  std::string dir;
  Engine e = setup_engine(o, true, warm, r, setup_scans, dir);
  if (setup_scans) v.add("EXPLAIN reports a full scan for a workload shape");

  auto server = std::make_unique<net::Server>(*e.db, 0, net::ServerOptions{});
  server->start();
  fingerprint(e, &server->options(), o, r);
  // At least one reader and one writer, so two connections on one core.
  const int writers = std::max(1, o.threads / 2);
  const int readers = std::max(1, o.threads - writers);
  std::vector<TcpConn> conns(static_cast<size_t>(readers + writers));
  for (int i = 0; i < readers + writers; ++i) {
    TcpConn& c = conns[static_cast<size_t>(i)];
    c.writer = i >= readers;
    c.peer = c.writer ? i - readers : i;
    c.peers = c.writer ? writers : readers;
    c.rng = Rng(o.seed * 1000003 + 77 + static_cast<uint64_t>(i));
    c.client = std::make_unique<net::Client>(server->port());
    if (c.writer) c.upd = c.client->prepare(kUpdateTemplate);
  }

  auto window_checks = [&](const TcpWindow& w) {
    check_window(w.before, w.after, 0, v);
    for (const RungOut& ro : w.rungs) {
      r.attempted += ro.attempted;
      r.failed += ro.attempted - ro.ok;
    }
  };

  // The traced run measures the reference rate only, in both halves.
  std::vector<Rung> ladder(std::begin(kLadder), std::end(kLadder));
  const double untraced_secs = o.trace ? o.seconds / 2 : o.seconds;
  if (o.trace) ladder = {{kLadder[0].rate, 1.0}};
  TcpWindow w = tcp_window(e, conns, ladder, untraced_secs, reads, v);
  window_checks(w);

  double max_rate = 0;
  uint64_t ok = 0;
  for (size_t ri = 0; ri < ladder.size(); ++ri) {
    const RungOut& ro = w.rungs[ri];
    const double rs = untraced_secs * ladder[ri].share;
    const LatencySummary rd = ro.reads.all().summarize();
    const LatencySummary wr = ro.writes.summarize();
    const bool sustained = ro.ok == ro.attempted && rd.p99_us <= kReadP99LimitUs &&
                           ro.end_late_us <= kBacklogLimitUs;
    std::printf("rung %.0f: %.1f ops/s done, read n=%" PRIu64 " p50=%.1fus p99=%.1fus, "
                "write n=%" PRIu64 " p50=%.1fus p99=%.1fus, last send %.0fus late, "
                "lag p99 %.1fus%s\n",
                ladder[ri].rate, ro.ok / rs, rd.count, rd.p50_us, rd.p99_us, wr.count,
                wr.p50_us, wr.p99_us, ro.end_late_us, percentile(ro.lag_us, 0.99),
                sustained ? " (sustained)" : "");
    if (sustained) max_rate = std::max(max_rate, ladder[ri].rate);
    ok += ro.ok;
  }
  // Completed ops over the whole ladder: the offered load while the server
  // keeps up, less when a rung falls behind.
  r.set("throughput_ops", ok / w.seconds, "ops/s", ok);
  // Reads and write transactions from their due time at the reference rate.
  report_reads(r, w.rungs[0].reads);
  report_writes(r, w.rungs[0].writes);
  r.set("max_rate_ops", max_rate, "ops/s");
  r.set("cpu_us_per_op", ok ? (w.after.cpu_s - w.before.cpu_s) * 1e6 / ok : 0, "us", ok);
  std::printf("wal: %" PRIu64 " checkpoints, %" PRIu64 " fsyncs, %" PRIu64
              " syncs over the window\n",
              w.after.dur.checkpoints - w.before.dur.checkpoints,
              w.after.dur.wal.fsyncs - w.before.dur.wal.fsyncs,
              w.after.dur.wal.sync_calls - w.before.dur.wal.sync_calls);

  TcpWindow tw;
  if (o.trace) {
    e.db->set_interceptor(std::make_shared<TracingInterceptor>(e.septic));
    rewarm_tcp(e, conns, warm, v);
    Tracer::get().set_enabled(true);
    tw = tcp_window(e, conns, ladder, o.seconds - untraced_secs, reads, v);
    Tracer::get().set_enabled(false);
    window_checks(tw);
  }

  for (TcpConn& c : conns) {
    try {
      c.client->quit();
    } catch (const std::exception&) {
    }
    c.client.reset();
  }
  server->stop();
  server.reset();

  StageCosts stages;
  double inproc_us = 0;
  if (o.trace) {
    std::vector<Stmt> sample;
    for (size_t i = 0; i < reads.size(); i += 2) sample.push_back(reads[i]);
    stages = replay_stages(e, sample);
    if (stages.scan_plans) v.add("planner chose a full scan for a sampled statement");
    // The in-process cost of the same bytes the clients sent.
    eng::Session s("perfbench-inproc");
    const int64_t t0 = now_ns();
    for (const Stmt& st : sample) e.db->execute(s, st.sql);
    inproc_us = (now_ns() - t0) / 1e3 / static_cast<double>(sample.size());
  }

  // Durability: destroy the engine, reopen the directory, find every
  // acknowledged write.
  e = Engine{};
  const auto t_open = Clock::now();
  uint64_t lost = 0, checked = 0;
  double recovery_s = 0;
  try {
    wal::DurableStorage::Options opts;
    opts.dir = dir;
    eng::Database reopened(opts);
    recovery_s = seconds_since(t_open);
    eng::Session s("perfbench-verify");
    for (const TcpConn& c : conns) {
      for (const auto& [id, name] : c.acked) {
        ++checked;
        eng::ResultSet rs =
            reopened.execute(s, "SELECT name FROM big WHERE id = " + std::to_string(id));
        if (rs.rows.size() != 1 || rs.rows[0][0].to_display() != name) ++lost;
      }
    }
  } catch (const std::exception& ex) {
    v.add(std::string("reopen failed: ") + ex.what());
  }
  std::filesystem::remove_all(dir);
  if (lost) {
    v.add(std::to_string(lost) + " acknowledged writes missing after reopen");
    r.failed += lost;
  }
  std::printf("durability: %" PRIu64 " acked rows checked after reopen, %" PRIu64
              " missing, recovery %.4fs\n",
              checked, lost, recovery_s);

  if (o.trace) {
    const auto tot = Tracer::get().totals();
    const auto& rp = tot[static_cast<size_t>(Layer::kOnQueryReplayed)];
    const auto& oq = tot[static_cast<size_t>(Layer::kOnQuery)];
    const auto& pe = tot[static_cast<size_t>(Layer::kOnPreparedExec)];
    const auto& cq = tot[static_cast<size_t>(Layer::kClientQuery)];
    const auto& cc = tot[static_cast<size_t>(Layer::kClientCommit)];
    const RungOut& ro = tw.rungs[0];
    const double secs = tw.seconds;
    const auto& a = tw.before.dur.wal;
    const auto& b = tw.after.dur.wal;
    r.set("common.charset_convert_us", stages.convert_us, "us");
    r.set("sqlcore.lex_us", stages.lex_us, "us");
    r.set("sqlcore.parse_us", stages.parse_us, "us");
    r.set("sqlcore.item_stack_us", stages.item_stack_us, "us");
    r.set("engine.validate_us", stages.validate_us, "us");
    r.set("engine.digest_lookup_us", stages.digest_lookup_us, "us");
    r.set("engine.plan_us", stages.plan_us, "us");
    r.set("engine.scan_plans", static_cast<double>(stages.scan_plans + setup_scans), "count");
    r.set("engine.execute_self_us", 0, "us");
    r.set("septic.on_query_us", oq.mean_us(), "us", oq.count);
    r.set("septic.on_query_replayed_us", rp.mean_us(), "us", rp.count);
    r.set("septic.on_prepared_exec_us", pe.mean_us(), "us", pe.count);
    // Server-side SEPTIC time over client-observed time (Database::execute
    // runs on the server's workers, out of the benchmark's reach).
    const double client_ns = cq.total_ns + cc.total_ns;
    r.set("septic.share",
          client_ns > 0 ? (oq.total_ns + rp.total_ns + pe.total_ns) / client_ns : 0, "ratio");
    r.set("storage.vacuum_backlog_share",
          ro.backlog_samples ? static_cast<double>(ro.backlog_hits) / ro.backlog_samples : 0,
          "ratio");
    r.set("txn.commit_us", cc.mean_us(), "us", cc.count);
    r.set("wal.commits_per_fsync",
          b.fsyncs > a.fsyncs
              ? static_cast<double>(b.sync_calls - a.sync_calls) / (b.fsyncs - a.fsyncs)
              : 0,
          "ratio");
    r.set("wal.fsyncs_per_s", (b.fsyncs - a.fsyncs) / secs, "1/s");
    r.set("wal.bytes_per_commit",
          b.appends > a.appends ? static_cast<double>(b.bytes_appended - a.bytes_appended) /
                                      (b.appends - a.appends)
                                : 0,
          "B");
    r.set("wal.checkpoints",
          static_cast<double>(tw.after.dur.checkpoints - tw.before.dur.checkpoints), "count");
    r.set("wal.recovery_s", recovery_s, "s");
    r.set("net.roundtrip_us", cq.mean_us(), "us", cq.count);
    r.set("net.remainder_us", cq.mean_us() - inproc_us, "us", cq.count);
    r.set("loadgen.lag_p99_us", percentile(ro.lag_us, 0.99), "us", ro.lag_us.size());
    report_counter_layers(r, tw.before, tw.after, ro.attempted, tw.peak_threads);
    const double overhead = trace_overhead_pct(w.rungs[0].reads, ro.reads);
    r.set("trace.overhead_pct", overhead, "%");
    std::printf("tracing overhead: read p50 %+.1f%% (traced vs untraced, mean over shapes); "
                "%" PRIu64 " spans\n",
                overhead, Tracer::get().span_count());
    const std::string path = o.workdir + "/spans-" + o.workload + ".tsv";
    if (Tracer::get().dump(path)) std::printf("span dump: %s\n", path.c_str());
  }
  r.set("rss_mb", proc_status("VmHWM") / 1024.0, "MB");
}

}  // namespace

void run_hot_read(const Options& o, Report& r) { run_inprocess(o, r, true); }
void run_adhoc_rw(const Options& o, Report& r) { run_inprocess(o, r, false); }
void run_tcp_durable(const Options& o, Report& r) { run_tcp(o, r); }

}  // namespace perfbench
