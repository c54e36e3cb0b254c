#include "server/query_server.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/equivalence.h"

namespace fuzzydb {

QueryServer::QueryServer(const QueryServerOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

QueryServer::~QueryServer() { Drain(); }

Result<Submission> QueryServer::Submit(QueryPtr query, size_t k,
                                       SourceResolver resolver,
                                       const SubmitOptions& submit) {
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
  }
  if (query == nullptr) return Status::InvalidArgument("null query");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  // Compose the backing store's generation into the cache version: a
  // changed data_version invalidates before this query stamps its own
  // store_version below, so nothing computed against the old data can be
  // served or cached against the new.
  if (options_.data_version) {
    const uint64_t observed = options_.data_version();
    bool changed = false;
    {
      MutexLock lock(mu_);
      changed = last_data_version_.has_value() &&
                *last_data_version_ != observed;
      last_data_version_ = observed;
    }
    if (changed) InvalidateCache();
  }

  // Resolve every atom now: fail fast on unknown attributes, and size the
  // plan from the widest list.
  std::vector<const Query*> atoms;
  query->CollectAtoms(&atoms);
  if (atoms.empty()) return Status::InvalidArgument("query has no atoms");
  size_t n = 0;
  for (const Query* atom : atoms) {
    Result<GradedSource*> src = resolver(*atom);
    if (!src.ok()) return src.status();
    n = std::max(n, (*src)->Size());
  }

  const std::string key = CanonicalKey(query) + "|k=" + std::to_string(k);
  // Stamped before any store read: a concurrent InvalidateCache makes this
  // version stale, so whatever this query computes can no longer be cached.
  const uint64_t version = cache_.store_version();

  std::optional<CachedQuery> cached = cache_.Lookup(key);
  if (cached.has_value() && cached->has_result && options_.cache_results) {
    auto ticket = std::make_shared<Ticket<ServedResult>>();
    ServedResult out;
    out.topk = cached->result;
    out.algorithm_used = cached->plan.algorithm;
    out.from_cache = true;
    out.completed_at = std::chrono::steady_clock::now();
    ticket->Complete(std::move(out));
    {
      MutexLock lock(mu_);
      ++stats_.served_from_cache;
    }
    return Submission{std::move(ticket), nullptr};
  }

  PlanChoice plan;
  if (cached.has_value()) {
    plan = cached->plan;
  } else {
    Result<PlanChoice> choice = ChoosePlan(*query, n, k, options_.cost_model);
    if (!choice.ok()) return choice.status();
    plan = std::move(choice).value();
    CachedQuery entry;
    entry.plan = plan;
    entry.store_version = version;
    cache_.Insert(key, entry);
  }

  if (options_.admission_max_cost > 0.0 &&
      plan.estimated_cost > options_.admission_max_cost) {
    MutexLock lock(mu_);
    ++stats_.rejected_cost;
    return Status::ResourceExhausted(
        "admission control: plan '" + AlgorithmName(plan.algorithm) +
        "' estimates charged cost " + std::to_string(plan.estimated_cost) +
        " > limit " + std::to_string(options_.admission_max_cost));
  }

  // Per-query budget: the caller's explicit one wins; otherwise derived
  // from the plan's own expectation — a query exceeding its estimate by
  // more than the headroom factor is truncated, not allowed to starve its
  // neighbors.
  uint64_t budget = submit.sorted_access_budget;
  if (budget == 0 && options_.budget_headroom > 0.0) {
    Result<AccessMix> mix = EstimateAccessMix(plan.algorithm, n, atoms.size(),
                                              k, options_.cost_model);
    if (mix.ok()) {
      budget = static_cast<uint64_t>(
          std::ceil(options_.budget_headroom * mix->sorted));
      budget = std::max<uint64_t>(budget, 1);
    }
  }
  std::shared_ptr<AccessGovernor> governor;
  if (budget > 0 || submit.deadline.has_value()) {
    governor = std::make_shared<AccessGovernor>(budget, submit.deadline);
  }

  auto ticket = std::make_shared<Ticket<ServedResult>>();
  {
    MutexLock lock(mu_);
    ++in_flight_;
  }
  auto task = [this, query = std::move(query), resolver = std::move(resolver),
               k, plan, governor, ticket, key, version]() mutable {
    RunQuery(std::move(query), std::move(resolver), k, std::move(plan),
             std::move(governor), ticket, std::move(key), version);
  };

  if (options_.executor != nullptr) {
    options_.executor->Schedule(std::move(task));
  } else if (options_.pool != nullptr && options_.pool->executors() > 1) {
    if (!options_.pool->TryPost(std::move(task))) {
      // Explicit rejection: the task was neither enqueued nor run, the
      // caller gets a Status, and the refusal is counted. Never a silent
      // drop.
      MutexLock lock(mu_);
      ++stats_.rejected_queue_full;
      if (--in_flight_ == 0) drained_cv_.NotifyAll();
      return Status::ResourceExhausted(
          "server queue full: the pool refused the task (backpressure); "
          "retry after in-flight queries drain");
    }
  } else {
    // Workerless pool (or none): inline, synchronous degradation.
    task();
  }
  {
    MutexLock lock(mu_);
    ++stats_.admitted;
  }
  return Submission{std::move(ticket), std::move(governor)};
}

void QueryServer::RunQuery(QueryPtr query, SourceResolver resolver, size_t k,
                           PlanChoice plan,
                           std::shared_ptr<AccessGovernor> governor,
                           std::shared_ptr<Ticket<ServedResult>> ticket,
                           std::string key, uint64_t store_version) {
  ExecutorOptions opts;
  opts.algorithm = plan.algorithm;
  opts.combined_period = plan.combined_period;
  opts.governor = governor;
  // Concurrency lives between queries: each answer is bit-identical to an
  // ExecuteTopK of the same plan on the calling thread.
  Result<ExecutionResult> run = ExecuteTopK(std::move(query), resolver, k, opts);

  ServedResult out;
  out.algorithm_used = plan.algorithm;
  if (run.ok()) {
    out.topk = std::move(run->topk);
    out.algorithm_used = run->algorithm_used;
    out.completion = run->completion;
    if (options_.cache_results && out.completion.ok()) {
      // Partial (truncated) results are never cached: their content depends
      // on the budget, not just the query. Insert re-checks store_version,
      // so a result computed before an invalidation is dropped.
      CachedQuery entry;
      entry.plan = std::move(plan);
      entry.has_result = true;
      entry.result = out.topk;
      entry.store_version = store_version;
      cache_.Insert(key, entry);
    }
  } else {
    out.status = run.status();
  }
  out.completed_at = std::chrono::steady_clock::now();
  ticket->Complete(std::move(out));
  {
    MutexLock lock(mu_);
    if (--in_flight_ == 0) drained_cv_.NotifyAll();
  }
}

void QueryServer::Drain() {
  MutexLock lock(mu_);
  while (in_flight_ > 0) drained_cv_.Wait(mu_, lock);
}

void QueryServer::InvalidateCache() { cache_.InvalidateAll(); }

ServerStats QueryServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t QueryServer::in_flight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

}  // namespace fuzzydb
