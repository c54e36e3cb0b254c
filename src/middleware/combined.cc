#include "middleware/combined.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace fuzzydb {

namespace {

struct Partial {
  std::vector<double> grades;
  std::vector<bool> known;
  size_t num_known = 0;
};

}  // namespace

Result<TopKResult> CombinedTopK(std::span<GradedSource* const> sources,
                                const ScoringRule& rule, size_t k, size_t h,
                                AccessGovernor* governor) {
  FUZZYDB_RETURN_NOT_OK(ValidateTopKArgs(sources, &rule, k));
  if (h == 0) return Status::InvalidArgument("h must be >= 1");
  if (!rule.monotone()) {
    return Status::FailedPrecondition(
        "CA requires a monotone scoring rule: " + rule.name());
  }

  const size_t m = sources.size();
  TopKResult result;
  SourceSet set(sources, governor);

  std::unordered_map<ObjectId, Partial> seen;
  std::vector<double> last_seen(m, 1.0);
  std::vector<bool> done(m, false);
  size_t exhausted = 0;
  size_t round = 0;

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
  // One resolution: random-access every still-missing grade, ascending j.
  auto resolve = [&](ObjectId id, Partial* p) {
    for (size_t j = 0; j < m; ++j) {
      if (!p->known[j]) {
        p->grades[j] = set.counted(j).RandomAccess(id);
        p->known[j] = true;
        ++p->num_known;
      }
    }
  };

  struct Bounded {
    ObjectId id = 0;
    double lower = 0.0;
    double upper = 0.0;
    bool complete = false;
  };
  std::vector<Bounded> winners;

  while (exhausted < m) {
    ++round;
    for (size_t j = 0; j < m; ++j) {
      if (done[j]) continue;
      std::optional<GradedObject> next = set.counted(j).NextSorted();
      if (!next.has_value()) {
        done[j] = true;
        ++exhausted;
        // Fagin virtual credit (same as TA/NRA): an exhausted list grades
        // every remaining object 0, so upper bounds must stop assuming its
        // last real grade.
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
        ++p.num_known;
      }
    }
    if (seen.size() < k) continue;

    // Collect bounds.
    std::vector<Bounded> bounds;
    bounds.reserve(seen.size());
    for (const auto& [id, p] : seen) {
      bounds.push_back({id, lower_of(p), upper_of(p), p.num_known == m});
    }
    auto by_lower = [](const Bounded& a, const Bounded& b) {
      if (a.lower != b.lower) return a.lower > b.lower;
      return a.id < b.id;
    };
    std::nth_element(bounds.begin(), bounds.begin() + static_cast<long>(k - 1),
                     bounds.end(), by_lower);
    double kth_lower = bounds[k - 1].lower;
    double max_other_upper = rule.Apply(last_seen);  // unseen objects
    const Bounded* most_promising = nullptr;
    for (size_t i = k; i < bounds.size(); ++i) {
      if (bounds[i].upper > max_other_upper) {
        max_other_upper = bounds[i].upper;
      }
      if (!bounds[i].complete &&
          (most_promising == nullptr ||
           bounds[i].upper > most_promising->upper)) {
        most_promising = &bounds[i];
      }
    }
    if (kth_lower >= max_other_upper) {
      winners.assign(bounds.begin(), bounds.begin() + static_cast<long>(k));
      break;
    }

    // Every h rounds spend random accesses resolving the candidate whose
    // upper bound blocks termination (prefer the blocking outsider, else
    // the weakest-known member of the current top k).
    if (round % h == 0) {
      ObjectId to_resolve = 0;
      bool found = false;
      if (most_promising != nullptr) {
        to_resolve = most_promising->id;
        found = true;
      } else {
        for (size_t i = 0; i < k; ++i) {
          if (!bounds[i].complete) {
            to_resolve = bounds[i].id;
            found = true;
            break;
          }
        }
      }
      if (found) {
        Partial& p = seen[to_resolve];
        resolve(to_resolve, &p);
      }
    }
  }

  if (winners.empty()) {
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

  // Exact once every list has graded the winner or run out (see nra.cc).
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
