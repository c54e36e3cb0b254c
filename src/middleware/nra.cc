#include "middleware/nra.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/contract.h"

namespace fuzzydb {

namespace {

struct Partial {
  std::vector<double> grades;  // known per-list grades
  std::vector<bool> known;
};

}  // namespace

Result<TopKResult> NoRandomAccessTopK(std::span<GradedSource* const> sources,
                                      const ScoringRule& rule, size_t k,
                                      AccessGovernor* governor) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "NRA requires a monotone scoring rule: " + rule.name());
  }

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);

  std::unordered_map<ObjectId, Partial> seen;
  std::vector<double> last_seen(m, 1.0);
  std::vector<bool> done(m, false);
  size_t exhausted = 0;

  std::vector<double> buf(m);
  auto lower_of = [&](const Partial& p) {
    for (size_t j = 0; j < m; ++j) buf[j] = p.known[j] ? p.grades[j] : 0.0;
    return rule.Apply(buf);
  };
  auto upper_of = [&](const Partial& p) {
    for (size_t j = 0; j < m; ++j) {
      buf[j] = p.known[j] ? p.grades[j] : last_seen[j];
    }
    return rule.Apply(buf);
  };

  struct Bounded {
    ObjectId id = 0;
    double lower = 0.0;
    double upper = 0.0;
  };
  std::vector<Bounded> winners;
  double prev_unseen_upper = 1.0;

  while (exhausted < m) {
    for (size_t j = 0; j < m; ++j) {
      if (done[j]) continue;
      std::optional<GradedObject> next = set.counted(j).NextSorted();
      if (!next.has_value()) {
        done[j] = true;
        ++exhausted;
        // Grades still unknown on an exhausted list are exactly 0 (absent
        // means grade 0), so upper bounds built from last_seen must use 0
        // here — both for partially-seen objects and for unseen ones.
        last_seen[j] = 0.0;
        continue;
      }
      last_seen[j] = next->grade;
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
    std::vector<Bounded> bounds;
    bounds.reserve(seen.size());
    for (const auto& [id, p] : seen) {
      bounds.push_back({id, lower_of(p), upper_of(p)});
      // A monotone rule applied to known-or-0 grades can never exceed the
      // same rule applied to known-or-last_seen grades.
      FUZZYDB_INVARIANT(bounds.back().lower <= bounds.back().upper + 1e-12,
                        "NRA lower bound " +
                            std::to_string(bounds.back().lower) +
                            " exceeds upper bound " +
                            std::to_string(bounds.back().upper) +
                            " for object " + std::to_string(id) +
                            " under rule " + rule.name());
    }
    std::nth_element(bounds.begin(), bounds.begin() + static_cast<long>(k - 1),
                     bounds.end(), [](const Bounded& a, const Bounded& b) {
                       if (a.lower != b.lower) return a.lower > b.lower;
                       return a.id < b.id;
                     });
    double kth_lower = bounds[k - 1].lower;
    double max_other_upper = rule.Apply(last_seen);  // unseen objects
    // Same monotone non-increase as TA's threshold (Theorem 4.2 analogue):
    // the ceiling on what an unseen object can still score only ever falls.
    FUZZYDB_INVARIANT(max_other_upper <= prev_unseen_upper + 1e-12,
                      "NRA unseen-object threshold rose from " +
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
  }

  if (winners.empty()) {
    // Exhausted every list: all grades are fully known; lower == exact.
    for (const auto& [id, p] : seen) {
      winners.push_back({id, lower_of(p), lower_of(p)});
    }
    std::sort(winners.begin(), winners.end(),
              [](const Bounded& a, const Bounded& b) {
                if (a.lower != b.lower) return a.lower > b.lower;
                return a.id < b.id;
              });
    if (winners.size() > k) winners.resize(k);
  }

  // A winner's lower bound is its exact grade once every list has either
  // graded it or run out: an object missing from an exhausted list has
  // grade 0 there (Fagin, Lotem and Naor, "Optimal Aggregation Algorithms
  // for Middleware"), the value lower_of already uses.
  result.grades_exact = true;
  for (const Bounded& w : winners) {
    result.items.push_back({w.id, w.lower});
    const Partial& p = seen.at(w.id);
    for (size_t j = 0; j < m; ++j) {
      if (!p.known[j] && !done[j]) result.grades_exact = false;
    }
  }
  std::sort(result.items.begin(), result.items.end(), GradeDescending);
  set.Finalize(&result);
  return result;
}

}  // namespace fuzzydb
