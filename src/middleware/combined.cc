#include "middleware/combined.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/contract.h"
#include "middleware/nra.h"

namespace fuzzydb {

namespace {

struct Partial {
  std::vector<double> grades;  // known per-list grades
  std::vector<bool> known;
};

struct Bounded {
  ObjectId id = 0;
  double lower = 0.0;
  double upper = 0.0;
  // Every grade known or on a list that ran out (see complete_of): nothing
  // left to resolve.
  bool complete = false;
};

bool ByLower(const Bounded& a, const Bounded& b) {
  if (a.lower != b.lower) return a.lower > b.lower;
  return a.id < b.id;
}

// The candidate whose upper bound blocks termination: the incomplete
// outsider with the highest upper bound, else the first incomplete member
// of the current top k (bounds[0, k) after the nth_element). Null when
// every candidate is complete.
const Bounded* BlockingCandidate(std::span<const Bounded> bounds, size_t k) {
  const Bounded* best = nullptr;
  for (size_t i = k; i < bounds.size(); ++i) {
    if (!bounds[i].complete &&
        (best == nullptr || bounds[i].upper > best->upper)) {
      best = &bounds[i];
    }
  }
  for (size_t i = 0; i < k && best == nullptr; ++i) {
    if (!bounds[i].complete) best = &bounds[i];
  }
  return best;
}

// A period no run reaches: NRA is CA that never resolves.
constexpr size_t kNeverResolve = SIZE_MAX;

// The bound-and-stop loop of NRA and CA. Every seen object carries a
// certified interval for its overall grade:
//   lower = rule(known grades, missing -> 0)
//   upper = rule(known grades, missing -> the list's last grade)
// and the run stops when k lower bounds dominate every other object's upper
// bound, including that of the objects no list has streamed yet. Every h
// rounds the blocking candidate is resolved by random access. `algorithm`
// names the caller in errors.
Result<TopKResult> BoundAndStop(std::span<GradedSource* const> sources,
                                const ScoringRule& rule, size_t k, size_t h,
                                AccessGovernor* governor,
                                const std::string& algorithm) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        algorithm + " requires a monotone scoring rule: " + rule.name());
  }

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);
  std::span<const double> last = set.last_grades();

  std::unordered_map<ObjectId, Partial> seen;
  size_t round = 0;

  std::vector<double> buf(m);
  auto lower_of = [&](const Partial& p) {
    for (size_t j = 0; j < m; ++j) buf[j] = p.known[j] ? p.grades[j] : 0.0;
    return rule.Apply(buf);
  };
  auto upper_of = [&](const Partial& p) {
    for (size_t j = 0; j < m; ++j) buf[j] = p.known[j] ? p.grades[j] : last[j];
    return rule.Apply(buf);
  };
  // Every grade is known or sits on a list that ran out, where an object
  // missing from the list has grade 0 (Fagin, Lotem and Naor, "Optimal
  // Aggregation Algorithms for Middleware"): lower_of is then the exact
  // grade, equal to upper_of, and resolving it would make no access. A list
  // the governor refused may still grade it above 0.
  auto complete_of = [&](const Partial& p) {
    for (size_t j = 0; j < m; ++j) {
      if (!p.known[j] && !set.ran_out(j)) return false;
    }
    return true;
  };

  std::vector<Bounded> winners;
  double prev_unseen_upper = 1.0;

  while (!set.all_ended()) {
    ++round;
    for (size_t j = 0; j < m; ++j) {
      if (set.ended(j)) continue;
      std::optional<GradedObject> next = set.NextSorted(j);
      if (!next.has_value()) continue;
      Partial& p = seen[next->id];
      if (p.grades.empty()) {
        p.grades.assign(m, 0.0);
        p.known.assign(m, false);
      }
      if (!p.known[j]) {
        p.known[j] = true;
        p.grades[j] = next->grade;
      }
    }
    if (seen.size() < k) continue;

    // Stopping rule: the k best lower bounds must dominate every other
    // object's upper bound and the upper bound of unseen objects.
    // Completeness is read only to pick the object a round resolves.
    const bool resolves = round % h == 0;
    std::vector<Bounded> bounds;
    bounds.reserve(seen.size());
    for (const auto& [id, p] : seen) {
      bounds.push_back(
          {id, lower_of(p), upper_of(p), resolves && complete_of(p)});
      // A monotone rule applied to known-or-0 grades can never exceed the
      // same rule applied to known-or-last grades.
      FUZZYDB_INVARIANT(bounds.back().lower <= bounds.back().upper + 1e-12,
                        algorithm + " lower bound " +
                            std::to_string(bounds.back().lower) +
                            " exceeds upper bound " +
                            std::to_string(bounds.back().upper) +
                            " for object " + std::to_string(id) +
                            " under rule " + rule.name());
    }
    std::nth_element(bounds.begin(), bounds.begin() + static_cast<long>(k - 1),
                     bounds.end(), ByLower);
    double kth_lower = bounds[k - 1].lower;
    double max_other_upper = rule.Apply(last);  // unseen objects
    // Same monotone non-increase as TA's threshold (Theorem 4.2 analogue):
    // the ceiling on what an unseen object can still score only ever falls.
    FUZZYDB_INVARIANT(max_other_upper <= prev_unseen_upper + 1e-12,
                      algorithm + " unseen-object threshold rose from " +
                          std::to_string(prev_unseen_upper) + " to " +
                          std::to_string(max_other_upper) + " under rule " +
                          rule.name());
    prev_unseen_upper = max_other_upper;
    for (size_t i = k; i < bounds.size(); ++i) {
      max_other_upper = std::max(max_other_upper, bounds[i].upper);
    }
    if (kth_lower >= max_other_upper) {
      winners.assign(bounds.begin(), bounds.begin() + static_cast<long>(k));
      break;
    }

    if (resolves) {
      if (const Bounded* c = BlockingCandidate(bounds, k); c != nullptr) {
        Partial& p = seen[c->id];
        for (size_t j = 0; j < m; ++j) {
          if (!p.known[j]) {
            p.grades[j] =
                set.ran_out(j) ? 0.0 : set.counted(j).RandomAccess(c->id);
            p.known[j] = true;
          }
        }
      }
    }
  }

  if (winners.empty()) {
    // Every list ended: rank everything seen by its lower bound.
    for (const auto& [id, p] : seen) {
      winners.push_back({id, lower_of(p), lower_of(p)});
    }
    std::sort(winners.begin(), winners.end(), ByLower);
    if (winners.size() > k) winners.resize(k);
  }

  // A winner's lower bound is its exact grade once it is complete.
  result.grades_exact = true;
  for (const Bounded& w : winners) {
    result.items.push_back({w.id, w.lower});
    if (!complete_of(seen.at(w.id))) result.grades_exact = false;
  }
  std::sort(result.items.begin(), result.items.end(), GradeDescending);
  set.Finalize(&result);
  return result;
}

}  // namespace

Result<TopKResult> CombinedTopK(std::span<GradedSource* const> sources,
                                const ScoringRule& rule, size_t k, size_t h,
                                AccessGovernor* governor) {
  if (h == 0) return Status::InvalidArgument("h must be >= 1");
  return BoundAndStop(sources, rule, k, h, governor, "CA");
}

Result<TopKResult> NoRandomAccessTopK(std::span<GradedSource* const> sources,
                                      const ScoringRule& rule, size_t k,
                                      AccessGovernor* governor) {
  return BoundAndStop(sources, rule, k, kNeverResolve, governor, "NRA");
}

}  // namespace fuzzydb
