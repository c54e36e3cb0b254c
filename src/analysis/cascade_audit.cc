#include "analysis/cascade_audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/random.h"
#include "common/squared_distance.h"

namespace fuzzydb {

namespace {

// Squared prefix distance over the first `prefix` embedding dimensions,
// accumulated exactly as the cascade kernel accumulates it.
double PrefixSquared(std::span<const double> ex, std::span<const double> ey,
                     size_t prefix) {
  SquaredDistanceAccumulator acc;
  acc.Accumulate(ex.data(), ey.data(), 0, prefix);
  return acc.Total();
}

}  // namespace

AuditReport AuditFilterLowerBound(std::string_view subject,
                                  const HistogramDistanceFn& cheap,
                                  const HistogramDistanceFn& exact,
                                  size_t bins,
                                  const CascadeAuditOptions& options) {
  AuditReport report{std::string(subject)};
  Rng rng(options.seed);
  for (size_t p = 0; p < options.pairs; ++p) {
    const Histogram x = RandomHistogram(&rng, bins);
    const Histogram y = RandomHistogram(&rng, bins);
    report.CountCheck();
    const double cheap_d = cheap(x, y);
    const double exact_d = exact(x, y);
    if (cheap_d > exact_d + options.tol) {
      std::ostringstream out;
      out << "pair " << p << ": cheap distance " << cheap_d
          << " exceeds exact distance " << exact_d << " by "
          << (cheap_d - exact_d)
          << " — the level can falsely dismiss true neighbors [HSE+95]";
      report.Fail("lower-bound", out.str());
    }
  }
  // The identity pair must bound itself: d̂(x,x) <= d(x,x).
  const Histogram x = RandomHistogram(&rng, bins);
  report.CountCheck();
  if (cheap(x, x) > exact(x, x) + options.tol) {
    std::ostringstream out;
    out << "identity pair: cheap " << cheap(x, x) << " > exact " << exact(x, x);
    report.Fail("lower-bound", out.str());
  }
  return report;
}

AuditReport AuditCascadeLevels(const QuadraticFormDistance& qfd,
                               std::vector<size_t> levels,
                               const CascadeAuditOptions& options) {
  const size_t dim = qfd.dimension();
  AuditReport report("cascade levels (dim " + std::to_string(dim) + ")");
  if (levels.empty()) {
    levels = {1, 2, 3, std::max<size_t>(dim / 4, 1),
              std::max<size_t>(dim / 2, 1), dim};
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (size_t& level : levels) level = std::clamp<size_t>(level, 1, dim);

  Rng rng(options.seed);
  for (size_t p = 0; p < options.pairs; ++p) {
    const Histogram hx = RandomHistogram(&rng, dim);
    const Histogram hy = RandomHistogram(&rng, dim);
    const std::vector<double> ex = qfd.Embed(hx);
    const std::vector<double> ey = qfd.Embed(hy);
    const double exact_d = qfd.Distance(hx, hy);
    const double exact_sq = exact_d * exact_d;
    double prev_sq = 0.0;
    for (size_t level : levels) {
      report.CountCheck();
      const double level_sq = PrefixSquared(ex, ey, level);
      // Against the exact distance: roundoff between the embedded and the
      // direct quadratic form is eigensolver-level, so allow a relative
      // epsilon on top of the caller's slack.
      const double slack = options.tol + 1e-9 * (1.0 + exact_sq);
      if (level_sq > exact_sq + slack) {
        std::ostringstream out;
        out << "pair " << p << ", prefix " << level << ": bound^2 "
            << level_sq << " exceeds exact d^2 " << exact_sq
            << " — prefix levels must never overshoot (formula (2))";
        report.Fail("lower-bound", out.str());
      }
      // Refinement monotonicity is exact: prefix sums of non-negative
      // terms cannot decrease as the prefix grows.
      if (level_sq + options.tol < prev_sq) {
        std::ostringstream out;
        out << "pair " << p << ", prefix " << level << ": bound^2 "
            << level_sq << " fell below the shallower level's " << prev_sq;
        report.Fail("refinement monotonicity", out.str());
      }
      prev_sq = level_sq;
    }
  }
  return report;
}

AuditReport AuditCascadeEquivalence(const EmbeddingStore& store, size_t k,
                                    const CascadeOptions& production_options,
                                    const CascadeAuditOptions& options) {
  AuditReport report("cascade == exact top-k");
  if (store.size() == 0 || k == 0) return report;
  Rng rng(options.seed);

  std::vector<CascadeOptions> configs = {production_options,
                                         {.prefix_dim = 1},
                                         {.prefix_dim = store.dim()}};
  // Every config with the int8 level -1 flipped the other way: equivalence
  // must hold regardless of whether the quantized tier is engaged.
  const size_t base_configs = configs.size();
  for (size_t c = 0; c < base_configs; ++c) {
    CascadeOptions flipped = configs[c];
    flipped.use_quantized = !flipped.use_quantized;
    configs.push_back(flipped);
  }
  const size_t queries = std::max<size_t>(options.pairs / 8, 2);
  std::vector<double> row(store.dim());
  std::vector<double> target(store.dim());
  for (size_t q = 0; q < queries; ++q) {
    // Random targets in the embedded space's bounding box: perturb a
    // random stored row so queries land where the data lives.
    store.CopyRow(static_cast<size_t>(rng.NextBounded(store.size())), row);
    for (size_t j = 0; j < store.dim(); ++j) {
      target[j] = row[j] + 0.1 * (rng.NextDouble() - 0.5);
    }
    const auto exact = store.ExactKnn(target, k);
    for (const CascadeOptions& config : configs) {
      report.CountCheck();
      const auto cascade = store.CascadeKnn(target, k, config);
      if (cascade.size() != exact.size()) {
        std::ostringstream out;
        out << "query " << q << " (prefix " << config.prefix_dim << ", int8 "
            << (config.use_quantized ? "on" : "off")
            << "): cascade returned " << cascade.size()
            << " results, exact returned " << exact.size();
        report.Fail("equivalence", out.str());
        continue;
      }
      for (size_t i = 0; i < exact.size(); ++i) {
        if (cascade[i].first != exact[i].first ||
            cascade[i].second != exact[i].second) {
          std::ostringstream out;
          out << "query " << q << " (prefix " << config.prefix_dim
              << ", int8 " << (config.use_quantized ? "on" : "off")
              << "), rank " << i << ": cascade (" << cascade[i].first << ", "
              << cascade[i].second << ") != exact (" << exact[i].first << ", "
              << exact[i].second << ")";
          report.Fail("equivalence", out.str());
          break;
        }
      }
    }
  }
  return report;
}

AuditReport AuditQuantizedLowerBound(const EmbeddingStore& store,
                                     const CascadeAuditOptions& options) {
  AuditReport report("quantized level -1 lower bound");
  report.CountCheck();
  if (!store.has_quantized() || store.size() == 0) {
    report.Fail("precondition",
                "store carries no int8 companion to audit — build it with "
                "BuildQuantized() before trusting use_quantized");
    return report;
  }
  const QuantizedStore& quantized = store.quantized();
  Rng rng(options.seed);
  const size_t queries = std::max<size_t>(options.pairs / 8, 2);
  std::vector<double> row(store.dim());
  std::vector<double> target(store.dim());
  for (size_t q = 0; q < queries; ++q) {
    store.CopyRow(static_cast<size_t>(rng.NextBounded(store.size())), row);
    // Odd queries leave the data's range entirely, forcing query-side code
    // clamping; clamping may only weaken the bound, never break it.
    const double blow_up = (q % 2 == 1) ? 1000.0 : 1.0;
    for (size_t j = 0; j < store.dim(); ++j) {
      target[j] = blow_up * (row[j] + 0.1 * (rng.NextDouble() - 0.5));
    }
    const QuantizedStore::EncodedQuery encoded =
        quantized.EncodeQuery(target);
    for (size_t i = 0; i < store.size(); ++i) {
      report.CountCheck();
      const double bound_sq = quantized.LowerBound2(encoded, i);
      SquaredDistanceAccumulator acc;
      store.AccumulateRow(i, target.data(), 0, store.dim(), &acc);
      const double exact_sq = acc.Total();
      if (bound_sq > exact_sq) {
        std::ostringstream out;
        out << "query " << q << ", row " << i << ": quantized bound^2 "
            << bound_sq << " exceeds exact d^2 " << exact_sq << " by "
            << (bound_sq - exact_sq)
            << " — level -1 can falsely dismiss true neighbors";
        report.Fail("lower-bound", out.str());
      }
    }
  }
  return report;
}

}  // namespace fuzzydb
