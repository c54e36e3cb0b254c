// E22 — the multi-tenant query server under open-loop Poisson load
// (DESIGN §3j). A stream of top-k queries arrives with exponential
// inter-arrival times and is submitted to a QueryServer; the sweep is
// arrival rate (as a load factor of the measured serial service rate) ×
// query mix {conjunctive, disjunctive, weighted, join} × pool size.
//
// Per cell the harness reports p50/p99/p999 sojourn latency (completion
// minus *scheduled* arrival, so queueing delay is charged even when the
// submitter fell behind — no coordinated omission), measured throughput,
// the admission-rejection rate (TryPost refusals surfaced as explicit
// ResourceExhausted, never silent drops), and the plan/result cache hit
// ratio (~30% of the stream repeats a hot canonical key).
//
// Every completed answer is compared bit-for-bit against a serial
// ExecuteTopK of the same plan — the server's determinism contract:
// concurrency lives between queries, so mismatches must be zero at every
// pool size and load. A second section
// puts derived budgets (headroom × the plan's sorted-access estimate) on
// the adversarial PathologicalMiddle workload and cross-checks the
// truncated partial results between a pooled and an inline server.
//
// FUZZYDB_SMOKE=1 shrinks the config to a seconds-long sanity pass and
// skips the BENCH_server.json write.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "middleware/join.h"
#include "middleware/optimizer.h"
#include "server/query_server.h"
#include "sim/workload.h"

namespace fuzzydb {
namespace {

constexpr uint64_t kSeed = 20260807;
constexpr size_t kM = 3;
const size_t kColdKs[] = {3, 5, 8, 10};
constexpr size_t kHotK = 5;

struct BenchConfig {
  size_t n;
  size_t queries_per_cell;
  std::vector<std::pair<const char*, double>> loads;  // name, load factor
  bool write_json;
};

BenchConfig MakeConfig() {
  if (std::getenv("FUZZYDB_SMOKE") != nullptr) {
    return {60, 12, {{"sub", 0.8}}, false};
  }
  return {300, 120, {{"sub", 0.5}, {"over", 2.5}}, true};
}

const char* MixName(size_t mix) {
  const char* names[] = {"conj", "disj", "weighted", "join"};
  return names[mix % 4];
}

// The four tenant query shapes. `target` only perturbs the canonical cache
// key (source resolution is by attribute), which is how the stream mixes
// hot repeats with unique queries.
QueryPtr MixQuery(size_t mix, const std::string& target) {
  switch (mix % 4) {
    case 0:
      return Query::And(
          {Query::Atomic("A", target), Query::Atomic("B", target)});
    case 1:
      return Query::Or({Query::Atomic("A", target),
                        Query::Atomic("B", target),
                        Query::Atomic("C", target)});
    case 2: {
      Weighting theta =
          CheckedValue(Weighting::Create({0.7, 0.3}), "E22 weights");
      return CheckedValue(
          Query::WeightedAnd(
              {Query::Atomic("A", target), Query::Atomic("B", target)},
              theta),
          "E22 weighted query");
    }
    default:
      // The fuzzy merge as a join operator: the atom resolves to a
      // TopKJoinSource over two of the workload's columns.
      return Query::Atomic("J", target);
  }
}

// Per-query execution context: fresh sources (VectorSource carries cursor
// state, so concurrent queries never share instances), the join operator
// for the join mix, and a resolver over them. Outlives the ticket.
struct QueryCtx {
  std::unique_ptr<std::vector<VectorSource>> sources;
  std::unique_ptr<TopKJoinSource> join;
  SourceResolver resolver;
};

QueryCtx MakeCtx(const Workload& w, bool with_join) {
  QueryCtx ctx;
  ctx.sources = std::make_unique<std::vector<VectorSource>>(
      CheckedValue(w.MakeSources(), "E22 sources"));
  std::vector<VectorSource>* raw = ctx.sources.get();
  if (with_join) {
    ctx.join = std::make_unique<TopKJoinSource>(CheckedValue(
        TopKJoinSource::Create(&(*raw)[0], &(*raw)[1], MinRule(), "join"),
        "E22 join"));
  }
  TopKJoinSource* join = ctx.join.get();
  ctx.resolver = [raw, join](const Query& atom) -> Result<GradedSource*> {
    if (atom.attribute() == "A") return &(*raw)[0];
    if (atom.attribute() == "B") return &(*raw)[1];
    if (atom.attribute() == "C") return &(*raw)[2];
    if (atom.attribute() == "J" && join != nullptr) return join;
    return Status::NotFound("unknown attribute " + atom.attribute());
  };
  return ctx;
}

// The server's execution path run on the calling thread: same plan choice —
// the reference every concurrent answer must match.
ExecutionResult SerialReference(size_t mix, const Workload& w, size_t k) {
  QueryCtx ctx = MakeCtx(w, mix % 4 == 3);
  QueryPtr query = MixQuery(mix, "ref");
  PlanChoice plan = CheckedValue(ChoosePlan(*query, w.n(), k, CostModel{}),
                                 "E22 reference plan");
  ExecutorOptions opts;
  opts.algorithm = plan.algorithm;
  opts.combined_period = plan.combined_period;
  return CheckedValue(ExecuteTopK(query, ctx.resolver, k, opts),
                      "E22 reference run");
}

bool Matches(const TopKResult& got, const ExecutionResult& ref) {
  if (got.items.size() != ref.topk.items.size()) return false;
  for (size_t i = 0; i < got.items.size(); ++i) {
    if (got.items[i].id != ref.topk.items[i].id) return false;
    if (got.items[i].grade != ref.topk.items[i].grade) return false;
  }
  return got.cost.sorted == ref.topk.cost.sorted &&
         got.cost.random == ref.topk.cost.random;
}

// Mean serial service time (seconds) of this mix — the rate calibration
// that turns load factors into arrival rates portably across hosts.
double CalibrateServiceSeconds(size_t mix, const Workload& w) {
  constexpr int kRuns = 12;
  QueryPtr query = MixQuery(mix, "calib");
  PlanChoice plan = CheckedValue(
      ChoosePlan(*query, w.n(), kHotK, CostModel{}), "E22 calibration plan");
  ExecutorOptions opts;
  opts.algorithm = plan.algorithm;
  opts.combined_period = plan.combined_period;
  // Fresh context per run (sources carry cursor state), but only the
  // ExecuteTopK portion is timed: that is the work a pool worker does per
  // admitted query, and hence the capacity the load factors scale.
  std::chrono::duration<double> total{0.0};
  for (int i = 0; i < kRuns; ++i) {
    QueryCtx ctx = MakeCtx(w, mix % 4 == 3);
    const auto t0 = std::chrono::steady_clock::now();
    CheckedValue(ExecuteTopK(query, ctx.resolver, kHotK, opts),
                 "E22 calibration run");
    total += std::chrono::steady_clock::now() - t0;
  }
  return std::max(total.count() / kRuns, 1e-7);
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(std::ceil(q * sorted.size()));
  idx = std::min(std::max<size_t>(idx, 1), sorted.size());
  return sorted[idx - 1];
}

struct CellResult {
  double offered_qps = 0.0;
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double reject_rate = 0.0;
  double cache_hit_ratio = 0.0;
  uint64_t mismatches = 0;
};

CellResult RunCell(size_t mix, const Workload& w, size_t pool_executors,
                   double load, double service_s, const BenchConfig& cfg,
                   const std::vector<ExecutionResult>& refs_by_k,
                   uint64_t rng_salt) {
  // The queue is deliberately shallow relative to the stream so that
  // over-saturation visibly trips TryPost backpressure instead of
  // absorbing the whole cell's backlog.
  ThreadPool pool(pool_executors, 24);
  QueryServerOptions sopt;
  sopt.pool = &pool;
  sopt.cache_capacity = 256;
  CellResult cell;
  // Offered rate: load factor × the cell's serial capacity (workers × the
  // calibrated per-query service rate; an inline pool serves like one).
  const size_t servers = std::max<size_t>(pool.executors() - 1, 1);
  cell.offered_qps = load * static_cast<double>(servers) / service_s;

  QueryServer server(sopt);
  Rng rng(kSeed ^ rng_salt);
  struct Pending {
    std::shared_ptr<Ticket<ServedResult>> ticket;
    std::chrono::steady_clock::time_point arrival;
    size_t k_index;  // index into refs_by_k
  };
  std::vector<std::unique_ptr<QueryCtx>> ctxs;
  std::vector<Pending> pending;
  ctxs.reserve(cfg.queries_per_cell);
  pending.reserve(cfg.queries_per_cell);

  // Materialize every query's context and shape *before* the paced loop:
  // source construction is comparable in cost to execution, and doing it
  // inline would throttle the real offered rate below the sweep's target.
  struct Prepared {
    QueryPtr query;
    size_t k_index;  // index into refs_by_k
  };
  std::vector<Prepared> prepared;
  prepared.reserve(cfg.queries_per_cell);
  for (size_t i = 0; i < cfg.queries_per_cell; ++i) {
    // ~30% of the stream repeats one hot canonical key per mix (at the hot
    // k); the rest are unique keys that must execute.
    const bool hot = (i % 10) < 3;
    const size_t k_index = hot ? 1 : i % 4;  // kColdKs[1] == kHotK
    std::string target = hot ? "hot" : "q";
    if (!hot) target += std::to_string(i);
    ctxs.push_back(std::make_unique<QueryCtx>(MakeCtx(w, mix % 4 == 3)));
    prepared.push_back({MixQuery(mix, target), k_index});
  }

  const auto start = std::chrono::steady_clock::now();
  double offset_s = 0.0;
  for (size_t i = 0; i < cfg.queries_per_cell; ++i) {
    offset_s += -std::log(1.0 - rng.NextDouble()) / cell.offered_qps;
    const auto arrival =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(offset_s));
    if (arrival > std::chrono::steady_clock::now()) {
      std::this_thread::sleep_until(arrival);
    }
    const size_t k_index = prepared[i].k_index;
    Result<Submission> sub = server.Submit(
        std::move(prepared[i].query), kColdKs[k_index], ctxs[i]->resolver);
    if (!sub.ok()) {
      // Explicit backpressure: the query was refused up front, nothing was
      // enqueued. A silent drop would instead show up as a missing ticket.
      ++cell.rejected;
      continue;
    }
    pending.push_back({sub->ticket, arrival, k_index});
  }
  server.Drain();

  std::vector<double> sojourn_ms;
  sojourn_ms.reserve(pending.size());
  auto last_done = start;
  for (const Pending& p : pending) {
    const ServedResult& r = p.ticket->Wait();
    if (!r.status.ok() || !r.completion.ok() ||
        !Matches(r.topk, refs_by_k[p.k_index])) {
      ++cell.mismatches;
      continue;
    }
    ++cell.completed;
    last_done = std::max(last_done, r.completed_at);
    sojourn_ms.push_back(
        std::chrono::duration<double, std::milli>(r.completed_at - p.arrival)
            .count());
  }
  std::sort(sojourn_ms.begin(), sojourn_ms.end());
  cell.p50_ms = Percentile(sojourn_ms, 0.50);
  cell.p99_ms = Percentile(sojourn_ms, 0.99);
  cell.p999_ms = Percentile(sojourn_ms, 0.999);
  const double span_s =
      std::chrono::duration<double>(last_done - start).count();
  cell.throughput_qps =
      span_s > 0.0 ? static_cast<double>(cell.completed) / span_s : 0.0;
  const ServerStats stats = server.stats();
  cell.reject_rate = stats.submitted > 0
                         ? static_cast<double>(stats.rejected_queue_full +
                                               stats.rejected_cost) /
                               static_cast<double>(stats.submitted)
                         : 0.0;
  const CacheStats cache = server.cache_stats();
  const uint64_t lookups = cache.hits + cache.misses;
  cell.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  return cell;
}

// Derived budgets on the adversarial instance: every query is truncated by
// headroom × the plan's sorted-access estimate, and the partial results of
// a pooled server must match an inline (serial) server bit for bit.
void BudgetSection(const BenchConfig& cfg, JsonReport* json) {
  Banner("E22b: derived budgets on PathologicalMiddle (headroom=1.5)");
  const Workload w = PathologicalMiddle(cfg.n);
  const QueryPtr query =
      Query::And({Query::Atomic("A", "t"), Query::Atomic("B", "t")});
  const size_t queries = std::max<size_t>(cfg.queries_per_cell / 4, 8);

  auto run = [&](ThreadPool* pool) {
    QueryServerOptions sopt;
    sopt.pool = pool;
    sopt.budget_headroom = 1.5;
    sopt.cache_results = false;  // every query executes (and truncates)
    QueryServer server(sopt);
    std::vector<std::unique_ptr<QueryCtx>> ctxs;
    std::vector<std::shared_ptr<Ticket<ServedResult>>> tickets;
    for (size_t i = 0; i < queries; ++i) {
      ctxs.push_back(std::make_unique<QueryCtx>(MakeCtx(w, false)));
      Submission sub = CheckedValue(
          server.Submit(query, kHotK, ctxs.back()->resolver),
          "E22b submit");
      tickets.push_back(sub.ticket);
    }
    server.Drain();
    std::vector<ServedResult> results;
    for (const auto& t : tickets) results.push_back(t->Wait());
    return results;
  };

  ThreadPool pool(3, 256);
  const std::vector<ServedResult> pooled = run(&pool);
  const std::vector<ServedResult> inline_run = run(nullptr);

  uint64_t truncated = 0;
  uint64_t mismatches = 0;
  uint64_t budget_sorted = 0;
  for (size_t i = 0; i < pooled.size(); ++i) {
    const ServedResult& a = pooled[i];
    const ServedResult& b = inline_run[i];
    if (!a.status.ok() || !b.status.ok()) {
      ++mismatches;
      continue;
    }
    if (a.completion.code() == StatusCode::kResourceExhausted) ++truncated;
    budget_sorted = a.topk.cost.sorted;
    const bool same =
        a.completion.code() == b.completion.code() &&
        a.topk.items.size() == b.topk.items.size() &&
        a.topk.cost.sorted == b.topk.cost.sorted &&
        a.topk.cost.random == b.topk.cost.random;
    if (!same) {
      ++mismatches;
      continue;
    }
    for (size_t r = 0; r < a.topk.items.size(); ++r) {
      if (a.topk.items[r].id != b.topk.items[r].id ||
          a.topk.items[r].grade != b.topk.items[r].grade) {
        ++mismatches;
        break;
      }
    }
  }

  TablePrinter table({"queries", "truncated", "consumed_sorted",
                      "pooled_vs_inline_mismatches"});
  table.AddRow({std::to_string(queries), std::to_string(truncated),
                std::to_string(budget_sorted), std::to_string(mismatches)});
  table.Print();
  json->Set("budget.queries", queries);
  json->Set("budget.truncated", truncated);
  json->Set("budget.consumed_sorted", budget_sorted);
  json->Set("budget.mismatches", mismatches);
}

void PrintTables() {
  const BenchConfig cfg = MakeConfig();
  Banner("E22: query server under open-loop Poisson load (n=" +
         std::to_string(cfg.n) + ", " +
         std::to_string(cfg.queries_per_cell) + " queries/cell)");

  Rng rng(kSeed);
  const Workload w = IndependentUniform(&rng, cfg.n, kM);

  std::vector<size_t> pools{1, 2, ThreadPool::HardwareConcurrency()};
  std::sort(pools.begin(), pools.end());
  pools.erase(std::unique(pools.begin(), pools.end()), pools.end());

  JsonReport json;
  json.Set("bench", std::string("exp22_query_server"));
  json.Set("config.n", cfg.n);
  json.Set("config.m", kM);
  json.Set("config.queries_per_cell", cfg.queries_per_cell);
  json.Set("config.seed", kSeed);
  json.Set("config.pool_sizes", pools.size());
  json.SetHostParallelism(
      std::max<size_t>(1, ThreadPool::HardwareConcurrency()));
  json.SetKernelDispatch(std::string(simd::Name(simd::Active())));

  TablePrinter table({"mix", "pool", "load", "offered_qps", "done", "rej%",
                      "hit%", "thruput_qps", "p50_ms", "p99_ms", "p999_ms",
                      "mismatch"});
  uint64_t total_mismatches = 0;
  uint64_t salt = 0;
  for (size_t mix = 0; mix < 4; ++mix) {
    std::vector<ExecutionResult> refs_by_k;
    refs_by_k.reserve(4);
    for (size_t k : kColdKs) refs_by_k.push_back(SerialReference(mix, w, k));
    const double service_s = CalibrateServiceSeconds(mix, w);
    json.Set(std::string(MixName(mix)) + ".serial_service_us",
             service_s * 1e6);
    for (size_t p : pools) {
      for (const auto& [load_name, load] : cfg.loads) {
        const CellResult cell = RunCell(mix, w, p, load, service_s, cfg,
                                        refs_by_k, ++salt);
        total_mismatches += cell.mismatches;
        table.AddRow({MixName(mix), std::to_string(p), load_name,
                      std::to_string(std::llround(cell.offered_qps)),
                      std::to_string(cell.completed),
                      TablePrinter::Num(100.0 * cell.reject_rate, 3),
                      TablePrinter::Num(100.0 * cell.cache_hit_ratio, 3),
                      std::to_string(std::llround(cell.throughput_qps)),
                      TablePrinter::Num(cell.p50_ms, 3),
                      TablePrinter::Num(cell.p99_ms, 3),
                      TablePrinter::Num(cell.p999_ms, 3),
                      std::to_string(cell.mismatches)});
        const std::string base = std::string(MixName(mix)) + ".pool" +
                                 std::to_string(p) + "." + load_name;
        json.Set(base + ".offered_qps", cell.offered_qps);
        json.Set(base + ".throughput_qps", cell.throughput_qps);
        json.Set(base + ".p50_ms", cell.p50_ms);
        json.Set(base + ".p99_ms", cell.p99_ms);
        json.Set(base + ".p999_ms", cell.p999_ms);
        json.Set(base + ".completed", cell.completed);
        json.Set(base + ".rejected", cell.rejected);
        json.Set(base + ".reject_rate", cell.reject_rate);
        json.Set(base + ".cache_hit_ratio", cell.cache_hit_ratio);
        json.Set(base + ".mismatches", cell.mismatches);
      }
    }
  }
  table.Print();

  BudgetSection(cfg, &json);

  json.Set("total_mismatches", total_mismatches);
  std::cout << "Expectation: zero mismatches — every admitted answer is "
               "bit-identical to a serial ExecuteTopK of the same plan at "
               "every pool size and load, budget truncations included. "
               "Saturated cells show queue-full rejections as explicit "
               "backpressure: done + rejected always equals the cell's "
               "stream, nothing dropped. (On a single-core host the "
               "submitter and workers share the core, so even nominally "
               "sub-saturated cells may reject — the host_parallelism "
               "stamp in the JSON flags this.) The hot 30% of the stream "
               "lands as cache hits.\n";
  if (cfg.write_json) json.WriteFileGuarded("BENCH_server.json");
}

// Timing section: submit-and-drain a burst through a two-executor server.
void BM_ServerBurst(benchmark::State& state) {
  const size_t pool_executors = static_cast<size_t>(state.range(0));
  Rng rng(kSeed);
  const Workload w = IndependentUniform(&rng, 100, kM);
  constexpr size_t kBurst = 32;
  for (auto _ : state) {
    ThreadPool pool(pool_executors, 128);
    QueryServerOptions sopt;
    sopt.pool = &pool;
    QueryServer server(sopt);
    std::vector<std::unique_ptr<QueryCtx>> ctxs;
    std::vector<std::shared_ptr<Ticket<ServedResult>>> tickets;
    for (size_t i = 0; i < kBurst; ++i) {
      ctxs.push_back(std::make_unique<QueryCtx>(MakeCtx(w, i % 4 == 3)));
      std::string target = "q";
      target += std::to_string(i);
      Result<Submission> sub =
          server.Submit(MixQuery(i, target), 5, ctxs.back()->resolver);
      if (sub.ok()) tickets.push_back(sub->ticket);
    }
    server.Drain();
    benchmark::DoNotOptimize(tickets.size());
  }
}
BENCHMARK(BM_ServerBurst)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fuzzydb

FUZZYDB_BENCH_MAIN(fuzzydb::PrintTables)
