// fuzzbench — the end-to-end and per-layer benchmark for fuzzydb's served
// fuzzy queries and kNN search (README.md in this directory).
//
// One workload per process:
//   fuzzbench --workload <image_served|synth_served|knn_paged|knn_ram>
//             --seed <s> --seconds <t> --out <report.json>
//             [--trace --trace-file <trace.json>] [--data-dir <dir>] [--smoke]
//
// Every module is measured from outside, by timing calls into its public
// functions: ImageStore and the Qbic*Source::Create grading calls (image),
// QueryServer::Submit and Ticket::Wait (server), the GradedSource accesses
// the executor makes (middleware, through a bench-local decorator), and the
// EmbeddingStore / PagedEmbeddingStore kNN calls plus ColumnFileWriter
// ingestion (image and storage). Nothing inside src/ is instrumented.
//
// The inputs are a pure function of --seed. Every answer is checked after
// the timed phase: a served answer must equal a serial ExecuteTopK of the
// same plan bit for bit (ids, grades, access counts), a cascade answer must
// equal ExactKnn. The report says "correct": false on any mismatch.
//
// With --trace every odd-numbered query of the stream is traced: its graded
// sources are wrapped in a timing decorator and its layer spans
// are kept in memory, then written as Chrome trace-event JSON at exit. The
// even-numbered queries run untraced in the same run, so the tracing
// overhead is the traced p50 over the untraced p50 of one stream.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "image/embedding_store.h"
#include "image/image_store.h"
#include "image/qbic_source.h"
#include "json_report.h"
#include "middleware/join.h"
#include "middleware/optimizer.h"
#include "server/query_server.h"
#include "sim/workload.h"
#include "storage/column_file.h"
#include "storage/paged_store.h"

namespace fuzzydb {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Answer = std::vector<std::pair<size_t, double>>;

constexpr size_t kK = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_file;
  std::string data_dir = ".";
};
// Queries come in pairs of the same kind (query mix, or kNN kind); the odd
// member of a pair is the traced one, so traced and untraced queries see
// the same composition and the overhead ratio compares like with like.
// Kinds are stratified per block of pairs, so every run executes the
// stated mix rather than a binomial draw of it.
constexpr size_t kPairBlock = 40;

double Ms(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Seconds(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::cerr << "fuzzbench: " << what << "\n";
  std::exit(2);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

template <typename T>
T Checked(Result<T> result, const std::string& what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// Linearly interpolated quantile (the numpy default); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// Single-thread read bandwidth over a buffer of `mb` megabytes, best of
// three passes: the bound a scan-bound kNN kernel is compared against.
double StreamGbps(size_t mb) {
  std::vector<uint64_t> buffer((mb << 20) / sizeof(uint64_t));
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = i;
  double best = 0.0;
  uint64_t total = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const TimePoint t0 = Clock::now();
    uint64_t sum = 0;
    for (uint64_t word : buffer) sum += word;
    const double s = Seconds(t0, Clock::now());
    total += sum;
    best = std::max(best, static_cast<double>(buffer.size() * 8) / s / 1e9);
  }
  // The sums are used, so the passes cannot be optimized away.
  if (total == 0) Fail("stream buffer summed to zero");
  return best;
}

// Runs `setup` `reps` times and returns the median wall time in seconds.
double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const TimePoint t0 = Clock::now();
    setup();
    times.push_back(Seconds(t0, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// Runs fn(0..n-1) on every core (at most four): the answer checks, which
// run after the timed phase.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ThreadPool pool(std::min<size_t>(4, ThreadPool::HardwareConcurrency()));
  pool.ParallelFor(n, fn);
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  uint64_t query = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for the query's root span
  TimePoint start;
  TimePoint end;
};

std::string LayerOf(const Span& span) {
  return span.parent == 0 ? "client" : span.name.substr(0, span.name.find('.'));
}

// The spans of one query, built by the thread that ran it and committed in
// one piece. The root span ("query") is added last, once its end is known;
// every other span is its child.
class QueryTrace {
 public:
  explicit QueryTrace(uint64_t query) : query_(query) {}

  void Child(std::string name, TimePoint start, TimePoint end) {
    spans_.push_back({std::move(name), query_, RootId() + spans_.size() + 1,
                      RootId(), start, end});
  }
  std::vector<Span> Finish(TimePoint start, TimePoint end) {
    spans_.push_back({"query", query_, RootId(), 0, start, end});
    return std::move(spans_);
  }

 private:
  uint64_t RootId() const { return (query_ + 1) << 4; }

  uint64_t query_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  void Commit(std::vector<Span> spans) {
    MutexLock lock(mu_);
    for (Span& s : spans) spans_.push_back(std::move(s));
  }

  // Self time per layer summed over all spans: a span's duration minus
  // the part its children cover (children never overlap each other).
  std::map<std::string, double> SelfMsByLayer() const {
    MutexLock lock(mu_);
    std::map<uint64_t, double> child_ms;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ms[s.parent] += Ms(s.start, s.end);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      self[LayerOf(s)] += Ms(s.start, s.end) - child_ms[s.id];
    }
    return self;
  }

  size_t queries() const {
    MutexLock lock(mu_);
    return static_cast<size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [](const Span& s) { return s.parent == 0; }));
  }

  void WriteChromeJson(const std::string& path, TimePoint epoch) const {
    MutexLock lock(mu_);
    std::ofstream out(path);
    if (!out) Fail("cannot write trace " + path);
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"query\":%llu,\"span\":%llu,\"parent\":%llu}}%s\n",
                    s.name.c_str(), LayerOf(s).c_str(),
                    static_cast<unsigned long long>(s.query),
                    Ms(epoch, s.start) * 1e3, Ms(s.start, s.end) * 1e3,
                    static_cast<unsigned long long>(s.query),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    if (!out) Fail("short write of trace " + path);
  }

 private:
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// Times one graded source's accesses for a traced query. The
// first access marks the start of middleware execution: Submit itself only
// asks for Size(). One executing thread touches it at a time, and the
// ticket's completion orders its writes before the client reads them.
class TracedSource final : public GradedSource {
 public:
  explicit TracedSource(GradedSource* inner) : inner_(inner) {}

  size_t Size() const override { return inner_->Size(); }
  std::optional<GradedObject> NextSorted() override {
    const TimePoint t0 = Begin();
    std::optional<GradedObject> out = inner_->NextSorted();
    busy_ += Clock::now() - t0;
    return out;
  }
  void RestartSorted() override { inner_->RestartSorted(); }
  double RandomAccess(ObjectId id) override {
    const TimePoint t0 = Begin();
    const double grade = inner_->RandomAccess(id);
    busy_ += Clock::now() - t0;
    return grade;
  }
  std::vector<GradedObject> AtLeast(double threshold) override {
    const TimePoint t0 = Begin();
    std::vector<GradedObject> out = inner_->AtLeast(threshold);
    busy_ += Clock::now() - t0;
    return out;
  }
  std::string name() const override { return inner_->name(); }

  std::optional<TimePoint> first_access() const { return first_; }
  double busy_ms() const {
    return std::chrono::duration<double, std::milli>(busy_).count();
  }

 private:
  TimePoint Begin() {
    const TimePoint now = Clock::now();
    if (!first_.has_value()) first_ = now;
    return now;
  }

  GradedSource* inner_;
  std::optional<TimePoint> first_;
  Clock::duration busy_{0};
};

// Sets every named metric to 0: a layer the workload does not run.
void SetZero(JsonReport* json, const std::vector<std::string>& names) {
  for (const std::string& name : names) json->Set(name, 0.0);
}

// Self time per traced query of each layer, the host's stream bandwidth,
// and the trace file. Returns the bandwidth, in GB/s.
double ReportTrace(const Tracer& tracer, const Args& args, TimePoint epoch,
                   JsonReport* json) {
  const double queries = static_cast<double>(tracer.queries());
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer :
       {"client", "image", "server", "middleware", "storage"}) {
    json->Set(std::string("self_ms.") + layer, Ratio(self[layer], queries));
  }
  if (!args.trace_file.empty()) tracer.WriteChromeJson(args.trace_file, epoch);
  // 512 MB exceeds a server's last-level cache (300 MB on the Xeon VM the
  // first results in README.md come from).
  const double gbps = StreamGbps(args.smoke ? 32 : 512);
  json->Set("host.stream_gbps", gbps);
  return gbps;
}

// ------------------------------------------------------------ query plans

// One entry of a seeded query stream: which of the workload's kinds (query
// mix, or kNN kind), whether it repeats the hot query, and a target index.
struct Planned {
  int kind = 0;
  bool hot = false;
  size_t target = 0;
};

// A seeded stream of at least `pairs` same-kind pairs. Each block of
// kPairBlock pairs holds exactly `hot_pairs` hot pairs (cycling through
// `hot_kinds`) and spreads the rest evenly over `kinds`, shuffled.
std::vector<Planned> PlanStream(Rng* rng, size_t pairs, size_t hot_pairs,
                                const std::vector<int>& hot_kinds,
                                const std::vector<int>& kinds,
                                size_t targets) {
  std::vector<Planned> out;
  while (out.size() < 2 * pairs) {
    std::vector<Planned> block(kPairBlock);
    for (size_t j = 0; j < kPairBlock; ++j) {
      block[j].hot = j < hot_pairs;
      block[j].kind = j < hot_pairs ? hot_kinds[j % hot_kinds.size()]
                                    : kinds[(j - hot_pairs) % kinds.size()];
    }
    rng->Shuffle(&block);
    for (const Planned& p : block) {
      for (int twin = 0; twin < 2; ++twin) {
        Planned q = p;
        q.target = p.hot ? 0 : rng->NextBounded(targets);
        out.push_back(q);
      }
    }
  }
  return out;
}

bool IsTraced(const Args& args, size_t index) {
  return args.trace && index % 2 == 1;
}

// The target string of a query's atoms. It only names the server's cache
// entry: every hot repeat shares one, every other query has its own.
std::string CacheKey(const Planned& planned, size_t index) {
  if (planned.hot) return "hot";
  std::string key = "q";
  key += std::to_string(index);
  return key;
}

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
};

// ------------------------------------------------------ served workloads

// Everything one served query leaves behind for reporting and checking.
struct ServedRecord {
  size_t index = 0;
  Planned planned;
  size_t atoms = 0;
  bool traced = false;
  TimePoint start;  // client start (closed loop) or scheduled arrival
  TimePoint submit_begin;
  TimePoint submit_end;
  TimePoint done;
  std::optional<TimePoint> exec_begin;  // first source access (traced)
  std::array<double, 3> grade_ms{-1.0, -1.0, -1.0};
  Status submit_status;
  std::shared_ptr<Ticket<ServedResult>> ticket;
  ServedResult result;
  double source_busy_ms = 0.0;
};

bool SameAnswer(const ServedResult& got, const ExecutionResult& ref) {
  const TopKResult& a = got.topk;
  const TopKResult& b = ref.topk;
  if (!got.status.ok() || !got.completion.ok()) return false;
  if (a.items.size() != b.items.size()) return false;
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].id != b.items[i].id) return false;
    if (a.items[i].grade != b.items[i].grade) return false;
  }
  return a.cost.sorted == b.cost.sorted && a.cost.random == b.cost.random;
}

// The server's execution path run serially: the same plan choice under the
// same (default) cost model, the same serial executor options.
ExecutionResult SerialReference(const QueryPtr& query,
                                const SourceResolver& resolver, size_t n) {
  const PlanChoice plan =
      Checked(ChoosePlan(*query, n, kK, CostModel{}), "reference plan");
  ExecutorOptions opts;
  opts.algorithm = plan.algorithm;
  opts.combined_period = plan.combined_period;
  return Checked(ExecuteTopK(query, resolver, kK, opts), "reference run");
}

// Counts the served answers that differ from a serial reference run. Each
// distinct (target, kind) gets one reference, computed on every core.
size_t CountMismatches(
    const std::vector<ServedRecord>& records,
    const std::function<ExecutionResult(size_t target, int kind)>& reference) {
  using Key = std::pair<size_t, int>;
  auto key_of = [](const ServedRecord& r) {
    return Key{r.planned.target, r.planned.kind};
  };
  std::map<Key, ExecutionResult> refs;
  for (const ServedRecord& r : records) refs[key_of(r)];
  std::vector<std::pair<const Key, ExecutionResult>*> todo;
  for (auto& entry : refs) todo.push_back(&entry);
  ParallelFor(todo.size(), [&](size_t i) {
    todo[i]->second = reference(todo[i]->first.first, todo[i]->first.second);
  });
  size_t wrong = 0;
  for (const ServedRecord& r : records) {
    if (r.submit_status.ok() && !SameAnswer(r.result, refs.at(key_of(r)))) {
      ++wrong;
    }
  }
  return wrong;
}

// A query's sources as the resolver hands them out: the raw sources, or
// decorators around them when the query is traced.
struct Resolution {
  std::vector<std::unique_ptr<TracedSource>> traced;
  std::vector<GradedSource*> sources;
};

Resolution Resolve(std::vector<GradedSource*> raw, bool traced) {
  Resolution r;
  r.sources = std::move(raw);
  if (!traced) return r;
  for (GradedSource*& s : r.sources) {
    if (s == nullptr) continue;
    r.traced.push_back(std::make_unique<TracedSource>(s));
    s = r.traced.back().get();
  }
  return r;
}

SourceResolver MakeResolver(const std::vector<std::string>& attributes,
                            const std::vector<GradedSource*>& sources) {
  return [&attributes, sources](const Query& atom) -> Result<GradedSource*> {
    for (size_t i = 0; i < attributes.size(); ++i) {
      if (atom.attribute() == attributes[i] && sources[i] != nullptr) {
        return sources[i];
      }
    }
    return Status::NotFound("unknown attribute " + atom.attribute());
  };
}

// After the ticket completed: folds the decorators' numbers into the
// record and commits the query's spans.
void FinishServed(const Resolution& res, ServedRecord* rec, Tracer* tracer) {
  if (!rec->traced) return;
  for (const auto& t : res.traced) {
    rec->source_busy_ms += t->busy_ms();
    const std::optional<TimePoint> first = t->first_access();
    if (first.has_value() &&
        (!rec->exec_begin.has_value() || *first < *rec->exec_begin)) {
      rec->exec_begin = first;
    }
  }
  QueryTrace trace(rec->index);
  static const char* kGradeSpans[] = {"image.grade.color", "image.grade.shape",
                                      "image.grade.texture"};
  TimePoint cursor = rec->start;
  for (size_t a = 0; a < rec->grade_ms.size(); ++a) {
    if (rec->grade_ms[a] < 0) continue;
    const TimePoint end =
        cursor + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         rec->grade_ms[a]));
    trace.Child(kGradeSpans[a], cursor, end);
    cursor = end;
  }
  trace.Child("server.submit", rec->submit_begin, rec->submit_end);
  if (rec->submit_status.ok() && !rec->result.from_cache) {
    const TimePoint exec = rec->exec_begin.value_or(rec->submit_end);
    trace.Child("server.queue_wait", rec->submit_end, exec);
    trace.Child("middleware.execute", exec, rec->result.completed_at);
  }
  tracer->Commit(trace.Finish(rec->start, rec->done));
}

const std::vector<Algorithm>& PlannedAlgorithms() {
  static const std::vector<Algorithm> kAll = {
      Algorithm::kNaive,
      Algorithm::kFagin,
      Algorithm::kThreshold,
      Algorithm::kNoRandomAccess,
      Algorithm::kFilteredSimulation,
      Algorithm::kDisjunctionShortcut,
      Algorithm::kCombined};
  return kAll;
}

// The per-layer metrics only the served workloads measure; the kNN
// workloads report them as 0.
std::vector<std::string> ServedLayerMetrics() {
  std::vector<std::string> names = {
      "image.grade_color_ms",     "image.grade_shape_ms",
      "image.grade_texture_ms",   "middleware.exec_ms_p50",
      "middleware.exec_ms_p95",   "middleware.sorted_accesses",
      "middleware.random_accesses", "middleware.exec_us_per_access",
      "middleware.source_time_share", "middleware.estimate_ratio",
      "server.submit_us",         "server.queue_wait_ms_p50",
      "server.queue_wait_ms_p95", "server.reject_ratio",
      "server.cache_hit_ratio",   "client.generator_lag_ms_p95"};
  for (Algorithm a : PlannedAlgorithms()) {
    names.push_back("middleware.plan_share." + AlgorithmName(a));
  }
  return names;
}

// The per-layer metrics only the kNN workloads measure; the served
// workloads report them as 0.
std::vector<std::string> KnnLayerMetrics() {
  std::vector<std::string> names = {
      "image.cascade_int8_ms",            "image.cascade_float_ms",
      "image.exact_ms",                   "image.cascade.rows_bounded",
      "image.cascade.candidates_refined", "image.cascade.bytes_scanned",
      "image.cascade.gbps",               "image.cascade.bw_fraction",
      "storage.ingest_rows_per_s"};
  for (const char* kind : {"int8", "float", "exact"}) {
    for (const char* m : {"pool_hit_rate", "misses_per_query",
                          "evictions_per_query", "disk_mb_per_query"}) {
      names.push_back(std::string("storage.") + kind + "." + m);
    }
  }
  return names;
}

// The end-to-end and per-layer numbers of a served workload. `n` and the
// records' atom counts feed the planner's access estimate.
Tally ReportServed(const std::vector<ServedRecord>& records,
                   const QueryServer& server, size_t n, TimePoint start,
                   bool open_loop, const Args& args, JsonReport* json) {
  Tally tally;
  tally.attempted = records.size();
  std::vector<double> latency, traced_ms, untraced_ms;
  std::vector<double> submit_us, exec_ms, queue_ms, lag_ms;
  std::array<std::vector<double>, 3> grade_ms;
  TimePoint last_done = start;
  double exec_total_ms = 0, busy_total_ms = 0, accesses = 0, estimated = 0;
  double sorted = 0, random = 0, executed = 0;
  std::map<Algorithm, double> plans;
  for (const ServedRecord& r : records) {
    if (open_loop) lag_ms.push_back(Ms(r.start, r.submit_begin));
    submit_us.push_back(Ms(r.submit_begin, r.submit_end) * 1e3);
    // Rejected, errored and truncated queries all count as failed.
    if (!r.submit_status.ok() || !r.result.status.ok() ||
        !r.result.completion.ok()) {
      ++tally.failed;
      continue;
    }
    const double ms = Ms(r.start, r.done);
    latency.push_back(ms);
    (r.traced ? traced_ms : untraced_ms).push_back(ms);
    last_done = std::max(last_done, r.done);
    if (!r.traced) continue;
    for (size_t a = 0; a < grade_ms.size(); ++a) {
      if (r.grade_ms[a] >= 0) grade_ms[a].push_back(r.grade_ms[a]);
    }
    if (r.result.from_cache) continue;
    const TimePoint exec = r.exec_begin.value_or(r.submit_end);
    const double e = Ms(exec, r.result.completed_at);
    exec_ms.push_back(e);
    queue_ms.push_back(Ms(r.submit_end, exec));
    exec_total_ms += e;
    busy_total_ms += r.source_busy_ms;
    executed += 1;
    const AccessCost& cost = r.result.topk.cost;
    sorted += static_cast<double>(cost.sorted);
    random += static_cast<double>(cost.random);
    plans[r.result.algorithm_used] += 1;
    Result<AccessMix> mix = EstimateAccessMix(r.result.algorithm_used, n,
                                              r.atoms, kK, CostModel{});
    if (mix.ok()) {
      accesses += static_cast<double>(cost.sorted + cost.random);
      estimated += mix->sorted + mix->random;
    }
  }

  json->Set("latency_p50_ms", Quantile(latency, 0.50));
  json->Set("latency_p95_ms", Quantile(latency, 0.95));
  json->Set("throughput_qps", Ratio(static_cast<double>(latency.size()),
                                    Seconds(start, last_done)));
  json->Set("peak_rss_mb", PeakRssMb());
  if (!args.trace) return tally;

  json->Set("image.grade_color_ms", Quantile(grade_ms[0], 0.5));
  json->Set("image.grade_shape_ms", Quantile(grade_ms[1], 0.5));
  json->Set("image.grade_texture_ms", Quantile(grade_ms[2], 0.5));
  SetZero(json, KnnLayerMetrics());
  json->Set("middleware.exec_ms_p50", Quantile(exec_ms, 0.50));
  json->Set("middleware.exec_ms_p95", Quantile(exec_ms, 0.95));
  json->Set("middleware.sorted_accesses", Ratio(sorted, executed));
  json->Set("middleware.random_accesses", Ratio(random, executed));
  json->Set("middleware.exec_us_per_access",
            Ratio(exec_total_ms * 1e3, sorted + random));
  json->Set("middleware.source_time_share",
            Ratio(busy_total_ms, exec_total_ms));
  json->Set("middleware.estimate_ratio", Ratio(accesses, estimated));
  for (Algorithm a : PlannedAlgorithms()) {
    json->Set("middleware.plan_share." + AlgorithmName(a),
              Ratio(plans[a], executed));
  }
  const ServerStats stats = server.stats();
  const CacheStats cache = server.cache_stats();
  json->Set("server.submit_us", Quantile(submit_us, 0.5));
  json->Set("server.queue_wait_ms_p50", Quantile(queue_ms, 0.50));
  json->Set("server.queue_wait_ms_p95", Quantile(queue_ms, 0.95));
  json->Set("server.reject_ratio",
            Ratio(static_cast<double>(stats.rejected_queue_full +
                                      stats.rejected_cost),
                  static_cast<double>(stats.submitted)));
  json->Set("server.cache_hit_ratio",
            Ratio(static_cast<double>(cache.hits),
                  static_cast<double>(cache.hits + cache.misses)));
  json->Set("client.generator_lag_ms_p95", Quantile(lag_ms, 0.95));
  json->Set("trace.overhead_ratio",
            Ratio(Quantile(traced_ms, 0.5), Quantile(untraced_ms, 0.5)));
  return tally;
}

// ----------------------------------------------------------- image_served
//
// Closed loop: 2 clients drive a QueryServer on ThreadPool(3) over four
// image collections. 30% of the stream repeats one hot Color∧Shape query;
// the rest spread evenly over four query shapes. Each client grades its
// atoms (the Qbic*Source::Create calls) before Submit, as the server API
// requires, then waits for the answer, so grading and execution both block
// a result.

const std::vector<std::string> kImageAttributes = {"Color", "Shape",
                                                   "Texture"};
// Which of Color, Shape, Texture each query shape uses.
constexpr bool kImageMixAtoms[4][3] = {
    {true, true, false}, {true, true, true}, {true, true, false},
    {true, false, true}};

QueryPtr ImageQuery(int mix, const std::string& key) {
  QueryPtr color = Query::Atomic("Color", key);
  QueryPtr shape = Query::Atomic("Shape", key);
  QueryPtr texture = Query::Atomic("Texture", key);
  switch (mix) {
    case 0:
      return Query::And({color, shape});
    case 1:
      return Query::And({color, shape, texture});
    case 2:
      return Checked(
          Query::WeightedAnd({color, shape},
                             Checked(Weighting::Create({0.7, 0.3}), "weights")),
          "weighted query");
    default:
      return Query::Or({color, texture});
  }
}

// One query's graded atoms; `ms` (when given) receives each Create's time.
struct ImageGrades {
  std::optional<QbicColorSource> color;
  std::optional<QbicShapeSource> shape;
  std::optional<QbicTextureSource> texture;

  std::vector<GradedSource*> Grade(const ImageStore& store,
                                   const ImageRecord& target, int mix,
                                   std::array<double, 3>* ms) {
    std::vector<GradedSource*> raw(3, nullptr);
    auto timed = [ms](size_t atom, const std::function<void()>& create) {
      const TimePoint t0 = Clock::now();
      create();
      if (ms != nullptr) (*ms)[atom] = Ms(t0, Clock::now());
    };
    if (kImageMixAtoms[mix][0]) {
      timed(0, [&] {
        color.emplace(Checked(QbicColorSource::Create(&store, target.histogram),
                              "color grading"));
      });
      raw[0] = &*color;
    }
    if (kImageMixAtoms[mix][1]) {
      timed(1, [&] {
        shape.emplace(Checked(QbicShapeSource::Create(&store, target.shape),
                              "shape grading"));
      });
      raw[1] = &*shape;
    }
    if (kImageMixAtoms[mix][2]) {
      timed(2, [&] {
        texture.emplace(Checked(
            QbicTextureSource::Create(&store, target.texture),
            "texture grading"));
      });
      raw[2] = &*texture;
    }
    return raw;
  }
};

size_t AtomCount(int mix) {
  return static_cast<size_t>(std::count(kImageMixAtoms[mix],
                                        kImageMixAtoms[mix] + 3, true));
}

// The served collections. A query grades one collection against an example
// image drawn from it. Each collection has its own palette, so spreading a
// run's queries over several averages over palettes instead of measuring
// one. Target t names image t % per_store of collection t / per_store.
struct ImageCollections {
  static constexpr size_t kCount = 4;
  std::vector<ImageStore> stores;
  size_t per_store = 0;

  ImageCollections(uint64_t seed, size_t images) : per_store(images) {
    for (size_t c = 0; c < kCount; ++c) {
      ImageStoreOptions options;
      options.num_images = images;
      options.palette_size = 64;
      options.seed = seed * kCount + c;
      stores.push_back(Checked(ImageStore::Generate(options), "image store"));
    }
  }
  size_t targets() const { return kCount * per_store; }
  const ImageStore& store(size_t target) const {
    return stores[target / per_store];
  }
  const ImageRecord& example(size_t target) const {
    return store(target).image(target % per_store);
  }
};

void ImageClient(const ImageCollections& collections, QueryServer* server,
                 const std::vector<Planned>& plan, size_t hot_target,
                 std::atomic<size_t>* next, TimePoint deadline,
                 const Args& args, Tracer* tracer,
                 std::vector<ServedRecord>* out) {
  for (;;) {
    const size_t i = next->fetch_add(1);
    // Each client runs at least one query, however short the run.
    if (i >= plan.size() || (i >= 2 && Clock::now() >= deadline)) return;
    ServedRecord rec;
    rec.index = i;
    rec.planned = plan[i];
    if (rec.planned.hot) rec.planned.target = hot_target;
    rec.atoms = AtomCount(rec.planned.kind);
    rec.traced = IsTraced(args, i);
    rec.start = Clock::now();
    const size_t target = rec.planned.target;
    ImageGrades grades;
    const Resolution res =
        Resolve(grades.Grade(collections.store(target),
                             collections.example(target), rec.planned.kind,
                             &rec.grade_ms),
                rec.traced);
    const std::string key = CacheKey(rec.planned, i);
    rec.submit_begin = Clock::now();
    Result<Submission> sub =
        server->Submit(ImageQuery(rec.planned.kind, key), kK,
                       MakeResolver(kImageAttributes, res.sources));
    rec.submit_end = Clock::now();
    if (sub.ok()) {
      rec.result = sub->ticket->Wait();
    } else {
      rec.submit_status = sub.status();
    }
    rec.done = Clock::now();
    FinishServed(res, &rec, tracer);
    out->push_back(std::move(rec));
  }
}

Tally RunImageServed(const Args& args, JsonReport* json) {
  const size_t images = args.smoke ? 100 : 1000;
  std::optional<ImageCollections> collections;
  json->Set("setup_s", MedianSetupSeconds(3, [&] {
              collections.reset();
              collections.emplace(args.seed, images);
            }));
  // The hot query's example: one image of collection 0.
  const size_t hot_target = static_cast<size_t>(args.seed * 2654435761u % images);
  Rng rng(args.seed ^ 0x1a9e5);
  const std::vector<Planned> plan = PlanStream(
      &rng, 20000, 12, {0}, {0, 1, 2, 3}, collections->targets());

  ThreadPool pool(3);
  QueryServerOptions sopt;
  sopt.pool = &pool;
  QueryServer server(sopt);
  Tracer tracer;
  std::atomic<size_t> next{0};
  const TimePoint start = Clock::now();
  const TimePoint deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::array<std::vector<ServedRecord>, 2> per_client;
  {
    std::vector<std::thread> clients;
    for (auto& out : per_client) {
      clients.emplace_back([&, out = &out] {
        ImageClient(*collections, &server, plan, hot_target, &next, deadline,
                    args, &tracer, out);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.Drain();
  std::vector<ServedRecord> records;
  for (auto& out : per_client) {
    for (ServedRecord& r : out) records.push_back(std::move(r));
  }
  std::sort(records.begin(), records.end(),
            [](const ServedRecord& a, const ServedRecord& b) {
              return a.index < b.index;
            });
  Tally tally =
      ReportServed(records, server, images, start, false, args, json);
  if (args.trace) ReportTrace(tracer, args, start, json);

  // Every answer against a serial run over freshly graded sources.
  tally.mismatches = CountMismatches(records, [&](size_t target, int mix) {
    ImageGrades grades;
    const std::vector<GradedSource*> raw = grades.Grade(
        collections->store(target), collections->example(target), mix,
        nullptr);
    return SerialReference(ImageQuery(mix, "ref"),
                           MakeResolver(kImageAttributes, raw), images);
  });
  return tally;
}

// ----------------------------------------------------------- synth_served
//
// Open loop: one generator thread submits E22's four query mixes (25% hot
// repeats) over IndependentUniform grade lists (n = 10,000, m = 3) at a fixed
// 200 qps, never calibrated, to a QueryServer on ThreadPool(3, queue 32).
// Sources cost almost nothing and there is no image or storage work, so
// admission, queueing and executor bookkeeping show. Each query is timed
// from its scheduled arrival, so a stalled generator is charged as latency.

constexpr double kSynthQps = 200.0;
constexpr size_t kRingSets = 64;
constexpr size_t kHotSets = 8;
const std::vector<std::string> kSynthAttributes = {"A", "B", "C", "J"};

// E22's tenant query shapes: conjunction, disjunction, weighted
// conjunction, and a top-k join atom.
QueryPtr SynthQuery(int mix, const std::string& key) {
  switch (mix) {
    case 0:
      return Query::And({Query::Atomic("A", key), Query::Atomic("B", key)});
    case 1:
      return Query::Or({Query::Atomic("A", key), Query::Atomic("B", key),
                        Query::Atomic("C", key)});
    case 2:
      return Checked(
          Query::WeightedAnd({Query::Atomic("A", key), Query::Atomic("B", key)},
                             Checked(Weighting::Create({0.7, 0.3}), "weights")),
          "weighted query");
    default:
      return Query::Atomic("J", key);
  }
}

size_t SynthAtoms(int mix) { return mix == 1 ? 3 : mix == 3 ? 1 : 2; }

// One prebuilt set of sources over one dataset; reused, rewound, once its
// previous ticket has completed.
struct SourceSet {
  size_t dataset;
  std::vector<VectorSource> lists;
  std::unique_ptr<TopKJoinSource> join;
  std::shared_ptr<Ticket<ServedResult>> last;

  SourceSet(const Workload& w, size_t dataset_index)
      : dataset(dataset_index),
        lists(Checked(w.MakeSources(), "synth sources")),
        join(std::make_unique<TopKJoinSource>(Checked(
            TopKJoinSource::Create(&lists[0], &lists[1], MinRule(), "join"),
            "synth join"))) {}

  std::vector<GradedSource*> Raw() {
    return {&lists[0], &lists[1], &lists[2], join.get()};
  }
  void Rewind() {
    for (VectorSource& l : lists) l.RestartSorted();
    join->RestartSorted();
  }
};

// Each cold ring set grades its own IndependentUniform draw, so one run
// averages the middleware's cost over many datasets rather than one. Hot
// repeats share one cache key per mix, so they all run over dataset 0,
// from a ring of their own.
struct SynthData {
  std::vector<Workload> datasets;
  std::vector<std::unique_ptr<SourceSet>> cold;
  std::vector<std::unique_ptr<SourceSet>> hot;

  SynthData(uint64_t seed, size_t n) {
    Rng rng(seed);
    for (size_t d = 0; d < kRingSets; ++d) {
      datasets.push_back(IndependentUniform(&rng, n, 3));
      cold.push_back(std::make_unique<SourceSet>(datasets.back(), d));
    }
    for (size_t h = 0; h < kHotSets; ++h) {
      hot.push_back(std::make_unique<SourceSet>(datasets[0], 0));
    }
  }
};

// Sleeps until shortly before `t`, then spins: a plain sleep overshoots by
// tens of microseconds, which would be charged to every query as latency.
void WaitUntil(TimePoint t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(200));
  while (Clock::now() < t) {
  }
}

// Arrival offsets (seconds) of `count` queries over [0, seconds]: a Poisson
// process at the stated rate, conditioned on its count, so every run offers
// exactly the same number of queries over the same span.
std::vector<double> ArrivalOffsets(Rng* rng, size_t count, double seconds) {
  std::vector<double> t(count + 1);
  double sum = 0.0;
  for (double& x : t) {
    sum += -std::log(1.0 - rng->NextDouble());
    x = sum;
  }
  t.pop_back();
  for (double& x : t) x *= seconds / sum;
  return t;
}

Tally RunSynthServed(const Args& args, JsonReport* json) {
  const size_t n = args.smoke ? 1000 : 10000;
  std::optional<SynthData> data;
  json->Set("setup_s", MedianSetupSeconds(5, [&] {
              data.reset();
              data.emplace(args.seed, n);
            }));
  const size_t count = std::max<size_t>(
      2, static_cast<size_t>(std::llround(kSynthQps * args.seconds)));
  Rng rng(args.seed ^ 0x5e7d);
  const std::vector<Planned> plan =
      PlanStream(&rng, (count + 1) / 2, 10, {0, 1, 2, 3}, {0, 1, 2, 3}, 1);
  const std::vector<double> offsets = ArrivalOffsets(&rng, count, args.seconds);

  ThreadPool pool(3, 32);
  QueryServerOptions sopt;
  sopt.pool = &pool;
  QueryServer server(sopt);
  Tracer tracer;
  std::vector<ServedRecord> records(count);
  std::vector<Resolution> resolutions(count);
  size_t hot_sets = 0;
  size_t cold_sets = 0;
  const TimePoint start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    ServedRecord& rec = records[i];
    rec.index = i;
    rec.planned = plan[i];
    rec.atoms = SynthAtoms(rec.planned.kind);
    rec.traced = IsTraced(args, i);
    rec.start = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offsets[i]));
    WaitUntil(rec.start);
    SourceSet& set = rec.planned.hot ? *data->hot[hot_sets++ % kHotSets]
                                     : *data->cold[cold_sets++ % kRingSets];
    rec.planned.target = set.dataset;
    if (set.last != nullptr) set.last->Wait();
    set.Rewind();
    resolutions[i] = Resolve(set.Raw(), rec.traced);
    const std::string key = CacheKey(rec.planned, i);
    rec.submit_begin = Clock::now();
    Result<Submission> sub =
        server.Submit(SynthQuery(rec.planned.kind, key), kK,
                      MakeResolver(kSynthAttributes, resolutions[i].sources));
    rec.submit_end = Clock::now();
    if (sub.ok()) {
      rec.ticket = sub->ticket;
      set.last = sub->ticket;
    } else {
      rec.submit_status = sub.status();
    }
  }
  server.Drain();
  for (size_t i = 0; i < count; ++i) {
    ServedRecord& rec = records[i];
    if (rec.ticket != nullptr) {
      rec.result = rec.ticket->Wait();
      rec.done = rec.result.completed_at;
    } else {
      rec.done = rec.submit_end;
    }
    FinishServed(resolutions[i], &rec, &tracer);
  }
  Tally tally = ReportServed(records, server, n, start, true, args, json);
  if (args.trace) ReportTrace(tracer, args, start, json);

  // Every answer against a serial run over fresh sources of its dataset.
  tally.mismatches = CountMismatches(records, [&](size_t dataset, int mix) {
    SourceSet fresh(data->datasets[dataset], dataset);
    return SerialReference(SynthQuery(mix, "ref"),
                           MakeResolver(kSynthAttributes, fresh.Raw()), n);
  });
  return tally;
}

// ------------------------------------------------- knn_paged and knn_ram
//
// Closed loop, one client: 60% int8 CascadeKnn, 20% float-only CascadeKnn,
// 20% ExactKnn at k=10 over rows of E23's decaying spectrum. knn_paged
// serves them from a column file through a pool of 1/8 of the file, so
// sequential scans and survivor-page pins evict each other; knn_ram serves
// the same rows, seed and queries resident (LoadToMemory), isolating the
// kernels. knn_paged minus knn_ram is the storage layer's cost.

constexpr size_t kDim = 32;  // stride 32 doubles = 256 B/row
enum KnnKind { kInt8 = 0, kFloat = 1, kExact = 2 };
const char* const kKnnKindNames[] = {"int8", "float", "exact"};

// E23's synthetic spectrum: per-dimension scales decaying like an
// eigenbasis embedding's, so the cascade's prefix bounds have the
// structure they were built for.
std::vector<double> Spectrum() {
  std::vector<double> s(kDim);
  for (size_t j = 0; j < kDim; ++j) {
    s[j] = std::exp(-0.18 * static_cast<double>(j));
  }
  return s;
}

// E23's row generator, streamed into a column file in constant memory.
void WriteRows(const std::string& path, size_t rows, uint64_t seed) {
  storage::ColumnFileOptions options;
  options.metadata = Spectrum();
  auto writer = Checked(storage::ColumnFileWriter::Create(path, kDim, options),
                        "column writer");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::vector<double> spectrum = Spectrum();
  std::vector<double> row(kDim);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < kDim; ++j) row[j] = unit(rng) * spectrum[j];
    CheckOk(writer->AppendRow(row), "append row");
  }
  CheckOk(writer->Finish(), "finish column file");
}

// Query `index`'s target, drawn like E23's targets from its own stream.
std::vector<double> KnnTarget(uint64_t seed, size_t index) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + index);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const std::vector<double> spectrum = Spectrum();
  std::vector<double> t(kDim);
  for (size_t j = 0; j < kDim; ++j) t[j] = unit(rng) * spectrum[j];
  return t;
}

struct KnnRecord {
  int kind = kInt8;
  bool traced = false;
  TimePoint start;
  TimePoint end;
  CascadeStats stats;
  storage::BufferPoolStats pool;  // this query's pool deltas
  Answer answer;
};

storage::BufferPoolStats PoolDelta(const storage::BufferPoolStats& before,
                                   const storage::BufferPoolStats& after) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.evictions - before.evictions,
          after.bytes_read_disk - before.bytes_read_disk};
}

Tally RunKnn(const Args& args, bool paged, JsonReport* json) {
  const size_t rows = args.smoke ? 20000 : 200000;
  const std::string path = args.data_dir + "/fuzzbench_knn_" +
                           std::to_string(args.seed) + ".fzdb";
  storage::PagedStoreOptions store_options;
  store_options.pool_bytes = rows * kDim * sizeof(double) / 8;
  std::unique_ptr<storage::PagedEmbeddingStore> disk;
  std::optional<EmbeddingStore> ram;
  std::vector<double> ingest_s;
  json->Set("setup_s", MedianSetupSeconds(3, [&] {
              if (disk != nullptr) disk->Close();
              disk.reset();
              ram.reset();
              const TimePoint t0 = Clock::now();
              WriteRows(path, rows, args.seed);
              ingest_s.push_back(Seconds(t0, Clock::now()));
              disk = Checked(storage::PagedEmbeddingStore::Open(path,
                                                                store_options),
                             "open column file");
              if (!paged) {
                ram.emplace(Checked(disk->LoadToMemory(), "load to memory"));
                disk->Close();
              }
            }));

  auto run = [&](int kind, std::span<const double> target,
                 CascadeStats* stats) -> Result<Answer> {
    CascadeOptions options;
    options.use_quantized = kind == kInt8;
    if (paged) {
      if (kind == kExact) return disk->ExactKnn(target, kK);
      return disk->CascadeKnn(target, kK, options, stats);
    }
    if (kind == kExact) return ram->ExactKnn(target, kK);
    return ram->CascadeKnn(target, kK, options, stats);
  };
  auto pool_stats = [&] {
    return paged ? disk->pool_stats() : storage::BufferPoolStats{};
  };

  Rng rng(args.seed ^ 0x4bb);
  const std::vector<Planned> plan =
      PlanStream(&rng, 20000, 0, {}, {kInt8, kInt8, kInt8, kFloat, kExact}, 1);
  Tracer tracer;
  std::vector<KnnRecord> records;
  const TimePoint start = Clock::now();
  const TimePoint deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  // At least one query, however short the run.
  for (size_t i = 0; i < plan.size() && (i == 0 || Clock::now() < deadline);
       ++i) {
    KnnRecord rec;
    rec.kind = plan[i].kind;
    rec.traced = IsTraced(args, i);
    const std::vector<double> target = KnnTarget(args.seed, i);
    const storage::BufferPoolStats before = pool_stats();
    rec.start = Clock::now();
    rec.answer = Checked(run(rec.kind, target, &rec.stats), "knn query");
    rec.end = Clock::now();
    rec.pool = PoolDelta(before, pool_stats());
    if (rec.traced) {
      QueryTrace trace(i);
      trace.Child(std::string(paged ? "storage" : "image") + ".knn." +
                      kKnnKindNames[rec.kind],
                  rec.start, rec.end);
      tracer.Commit(trace.Finish(rec.start, rec.end));
    }
    records.push_back(std::move(rec));
  }

  Tally tally;
  tally.attempted = records.size();
  std::vector<double> latency, traced_ms, untraced_ms;
  std::array<std::vector<double>, 3> kind_ms;
  std::array<storage::BufferPoolStats, 3> kind_pool{};
  std::array<double, 3> kind_count{};
  double bounded = 0, refined = 0, bytes = 0, cascade_s = 0, cascades = 0;
  for (const KnnRecord& r : records) {
    const double ms = Ms(r.start, r.end);
    latency.push_back(ms);
    (r.traced ? traced_ms : untraced_ms).push_back(ms);
    if (!r.traced) continue;
    kind_ms[r.kind].push_back(ms);
    kind_count[r.kind] += 1;
    kind_pool[r.kind].hits += r.pool.hits;
    kind_pool[r.kind].misses += r.pool.misses;
    kind_pool[r.kind].evictions += r.pool.evictions;
    kind_pool[r.kind].bytes_read_disk += r.pool.bytes_read_disk;
    if (r.kind == kExact) continue;
    cascades += 1;
    bounded += static_cast<double>(r.stats.quantized_bound_computations +
                                   r.stats.bound_computations);
    refined += static_cast<double>(r.stats.candidates_refined);
    bytes += static_cast<double>(r.stats.bytes_scanned_quantized +
                                 r.stats.bytes_scanned_prefix +
                                 r.stats.bytes_scanned_refine);
    cascade_s += ms / 1e3;
  }
  json->Set("latency_p50_ms", Quantile(latency, 0.50));
  json->Set("latency_p95_ms", Quantile(latency, 0.95));
  json->Set("throughput_qps", Ratio(static_cast<double>(records.size()),
                                    Seconds(start, records.back().end)));
  json->Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    SetZero(json, ServedLayerMetrics());
    json->Set("image.cascade_int8_ms", Quantile(kind_ms[kInt8], 0.5));
    json->Set("image.cascade_float_ms", Quantile(kind_ms[kFloat], 0.5));
    json->Set("image.exact_ms", Quantile(kind_ms[kExact], 0.5));
    json->Set("image.cascade.rows_bounded", Ratio(bounded, cascades));
    json->Set("image.cascade.candidates_refined", Ratio(refined, cascades));
    json->Set("image.cascade.bytes_scanned", Ratio(bytes, cascades));
    const double gbps = Ratio(bytes / 1e9, cascade_s);
    json->Set("image.cascade.gbps", gbps);
    for (int kind : {kInt8, kFloat, kExact}) {
      const storage::BufferPoolStats& p = kind_pool[kind];
      const std::string prefix =
          std::string("storage.") + kKnnKindNames[kind] + ".";
      json->Set(prefix + "pool_hit_rate",
                Ratio(static_cast<double>(p.hits),
                      static_cast<double>(p.hits + p.misses)));
      json->Set(prefix + "misses_per_query",
                Ratio(static_cast<double>(p.misses), kind_count[kind]));
      json->Set(prefix + "evictions_per_query",
                Ratio(static_cast<double>(p.evictions), kind_count[kind]));
      json->Set(prefix + "disk_mb_per_query",
                Ratio(static_cast<double>(p.bytes_read_disk) / 1e6,
                      kind_count[kind]));
    }
    std::sort(ingest_s.begin(), ingest_s.end());
    json->Set("storage.ingest_rows_per_s",
              Ratio(static_cast<double>(rows), ingest_s[ingest_s.size() / 2]));
    json->Set("trace.overhead_ratio",
              Ratio(Quantile(traced_ms, 0.5), Quantile(untraced_ms, 0.5)));
    json->Set("image.cascade.bw_fraction",
              Ratio(gbps, ReportTrace(tracer, args, start, json)));
  }

  // Every cascade answer must equal ExactKnn on the same store; every exact
  // answer must hold k ascending neighbors.
  std::vector<Answer> refs(records.size());
  ParallelFor(records.size(), [&](size_t i) {
    const KnnRecord& r = records[i];
    if (r.kind == kExact) {
      refs[i] = r.answer;
    } else {
      refs[i] = Checked(run(kExact, KnnTarget(args.seed, i), nullptr),
                        "reference knn");
    }
  });
  for (size_t i = 0; i < records.size(); ++i) {
    const Answer& a = records[i].answer;
    const bool ascending = std::is_sorted(
        a.begin(), a.end(),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    if (a.size() != std::min(kK, rows) || !ascending || a != refs[i]) {
      ++tally.mismatches;
    }
  }
  if (disk != nullptr) disk->Close();
  std::remove(path.c_str());
  return tally;
}

// ------------------------------------------------------------------ main

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Fail("bad --seed " + v);
    } else if (flag == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      args.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') Fail("bad --seconds " + v);
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--trace-file") {
      args.trace_file = value();
    } else if (flag == "--data-dir") {
      args.data_dir = value();
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.out.empty()) Fail("--out is required");
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    Fail("--seconds must be in (0, 120]");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  JsonReport json;
  Tally tally;
  if (args.workload == "image_served") {
    tally = RunImageServed(args, &json);
  } else if (args.workload == "synth_served") {
    tally = RunSynthServed(args, &json);
  } else if (args.workload == "knn_paged") {
    tally = RunKnn(args, /*paged=*/true, &json);
  } else if (args.workload == "knn_ram") {
    tally = RunKnn(args, /*paged=*/false, &json);
  } else {
    Fail("unknown workload '" + args.workload + "'");
  }
  json.Set("attempted", tally.attempted);
  json.Set("failed", tally.failed);
  json.Set("mismatches", tally.mismatches);
  json.Set("correct", tally.mismatches == 0);
  std::ofstream out(args.out);
  out << json.ToString();
  out.close();
  if (!out) Fail("cannot write " + args.out);
  if (tally.mismatches != 0) {
    std::cerr << "fuzzbench: " << tally.mismatches << " wrong answers\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fuzzydb

int main(int argc, char** argv) { return fuzzydb::Main(argc, argv); }
