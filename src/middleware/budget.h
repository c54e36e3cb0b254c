// Per-query execution budgets and cooperative cancellation (DESIGN §3j).
//
// The paper's algorithms run to their halting condition; a serving layer
// cannot afford that for every tenant. An AccessGovernor sits between one
// query's CountingSources and their sorted streams and *truncates* them when
// the query has spent its budget (or was cancelled, or passed its deadline):
// every subsequent NextSorted ends the stream. TA/A0/NRA/CA halt on an
// ended stream as on one that ran out, with the correct top-k *of the
// consumed prefix*, so an interrupted query degrades to a well-defined
// partial result instead of aborting, and ExecuteTopK surfaces the
// interruption as ExecutionResult::completion (never as a failed Result).
// A refused stream is not a list that ran out, though: the objects it never
// streamed keep their true grades, so the algorithms still random-access it
// and NRA/CA do not call a grade missing there exact (SourceSet, cost.h).
//
// Determinism: the budget is charged on sorted accesses in the algorithm's
// own consumption order, so a fixed budget truncates at exactly the same
// access prefix on every run, and a served partial answer is bit-identical
// to an ExecuteTopK with the same budget at every server pool size
// (enforced by tests/server_query_server_test.cc). Cancellation and
// deadlines are inherently timing-dependent: *whether* they fire is a race,
// but the result is always some consumed prefix's top-k, and the
// completion Status says which interruption won.

#ifndef FUZZYDB_MIDDLEWARE_BUDGET_H_
#define FUZZYDB_MIDDLEWARE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace fuzzydb {

/// Gate for one query's sorted-access consumption. Thread-safe (atomics
/// only, no locks): the consuming algorithm calls AdmitSorted from its own
/// thread while Cancel may arrive from any other.
class AccessGovernor {
 public:
  /// `sorted_budget` bounds the consumed sorted accesses across all of the
  /// query's sources; 0 means unlimited. `deadline`, when set, truncates
  /// the streams once the steady clock passes it.
  explicit AccessGovernor(
      uint64_t sorted_budget = 0,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt)
      : budget_(sorted_budget), deadline_(deadline) {}

  AccessGovernor(const AccessGovernor&) = delete;
  AccessGovernor& operator=(const AccessGovernor&) = delete;

  /// Requests cooperative cancellation: every later AdmitSorted refuses, so
  /// the query's sorted streams all end and the algorithm halts with the
  /// prefix top-k. Safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Charges one consumed sorted access. False — permanently, for every
  /// list — once the query is cancelled, past its deadline, or out of
  /// budget; the refusal reason is latched for CompletionStatus().
  bool AdmitSorted() {
    if (cancelled_.load(std::memory_order_relaxed)) {
      cancel_refused_.store(true, std::memory_order_relaxed);
      return false;
    }
    if (deadline_.has_value() &&
        std::chrono::steady_clock::now() >= *deadline_) {
      deadline_refused_.store(true, std::memory_order_relaxed);
      return false;
    }
    if (budget_ != 0) {
      // The consuming algorithm is single-threaded per query, but Cancel and
      // stats readers are not; CAS keeps the countdown exact regardless.
      uint64_t spent = spent_.load(std::memory_order_relaxed);
      do {
        if (spent >= budget_) {
          budget_refused_.store(true, std::memory_order_relaxed);
          return false;
        }
      } while (!spent_.compare_exchange_weak(spent, spent + 1,
                                             std::memory_order_relaxed));
      return true;
    }
    spent_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Consumed sorted accesses admitted so far.
  uint64_t spent() const { return spent_.load(std::memory_order_relaxed); }

  /// The configured budget (0 = unlimited).
  uint64_t budget() const { return budget_; }

  /// True iff some sorted access was refused (the run ended partial).
  bool interrupted() const {
    return cancel_refused_.load(std::memory_order_relaxed) ||
           deadline_refused_.load(std::memory_order_relaxed) ||
           budget_refused_.load(std::memory_order_relaxed);
  }

  /// OK for an uninterrupted run; otherwise the documented partial-result
  /// Status (precedence: Cancelled > DeadlineExceeded > ResourceExhausted).
  /// The returned items are still a correct top-k of the consumed prefix —
  /// this Status marks the answer partial, it does not mark the run failed.
  Status CompletionStatus() const {
    if (cancel_refused_.load(std::memory_order_relaxed)) {
      return Status::Cancelled(
          "query cancelled after " + std::to_string(spent()) +
          " consumed sorted accesses; items are the top-k of the consumed "
          "prefix");
    }
    if (deadline_refused_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded(
          "query deadline passed after " + std::to_string(spent()) +
          " consumed sorted accesses; items are the top-k of the consumed "
          "prefix");
    }
    if (budget_refused_.load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted(
          "sorted-access budget of " + std::to_string(budget_) +
          " exhausted; items are the top-k of the consumed prefix");
    }
    return Status::OK();
  }

 private:
  const uint64_t budget_;
  const std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::atomic<uint64_t> spent_{0};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> cancel_refused_{false};
  std::atomic<bool> deadline_refused_{false};
  std::atomic<bool> budget_refused_{false};
};

}  // namespace fuzzydb

#endif  // FUZZYDB_MIDDLEWARE_BUDGET_H_
