#include "sim/experiment.h"

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "middleware/naive.h"

namespace fuzzydb {

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Num(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(rows_[0].size(), 0);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c]) + 2)
         << (c < row.size() ? row[c] : "");
    }
    os << "\n";
  };
  print_row(rows_[0]);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (size_t r = 1; r < rows_.size(); ++r) print_row(rows_[r]);
}

void TablePrinter::Print() const { Print(std::cout); }

Result<std::vector<CostPoint>> SweepCost(const WorkloadFactory& factory,
                                         const AlgorithmRunner& runner,
                                         const ScoringRule& rule,
                                         const std::vector<size_t>& ns,
                                         size_t m, size_t k, size_t trials,
                                         uint64_t seed) {
  if (trials == 0) return Status::InvalidArgument("trials must be >= 1");
  std::vector<CostPoint> out;
  out.reserve(ns.size());
  for (size_t n : ns) {
    uint64_t total_sorted = 0, total_random = 0;
    for (size_t t = 0; t < trials; ++t) {
      Rng rng(seed + 1000003 * t + n);
      Workload w = factory(&rng, n);
      Result<std::vector<VectorSource>> sources = w.MakeSources();
      if (!sources.ok()) return sources.status();
      std::vector<GradedSource*> ptrs = SourcePtrs(*sources);
      Result<TopKResult> r = runner(ptrs, rule, k);
      if (!r.ok()) return r.status();
      Status checked = CheckTopK(*r, ptrs, rule, k);
      if (!checked.ok()) {
        return Status::Internal("n=" + std::to_string(n) + " trial " +
                                std::to_string(t) + ": " +
                                checked.message());
      }
      total_sorted += r->cost.sorted;
      total_random += r->cost.random;
    }
    CostPoint p;
    p.n = n;
    p.m = m;
    p.k = k;
    p.cost.sorted = total_sorted / trials;
    p.cost.random = total_random / trials;
    out.push_back(p);
  }
  return out;
}

Status CheckTopK(const TopKResult& result,
                 std::span<GradedSource* const> sources,
                 const ScoringRule& rule, size_t k) {
  Result<GradedSet> truth = NaiveAllGrades(sources, rule);
  if (!truth.ok()) return truth.status();
  std::vector<GradedObject> checked = result.items;
  if (!result.grades_exact) {
    // Lower bounds: check the returned set at its true grades.
    for (GradedObject& g : checked) {
      g.grade = truth->GradeOf(g.id).value_or(-1.0);
    }
  }
  if (!IsValidTopK(checked, *truth, k)) {
    return Status::Internal("answer is not a correct top-" +
                            std::to_string(k) + " under rule " +
                            rule.name());
  }
  return Status::OK();
}

Result<LinearFit> FitCostExponent(const std::vector<CostPoint>& points) {
  std::vector<double> xs, ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const CostPoint& p : points) {
    xs.push_back(static_cast<double>(p.n));
    ys.push_back(static_cast<double>(p.cost.total()));
  }
  return FitPowerLaw(xs, ys);
}

std::vector<GradedSource*> SourcePtrs(std::vector<VectorSource>& sources) {
  std::vector<GradedSource*> out;
  out.reserve(sources.size());
  for (VectorSource& s : sources) out.push_back(&s);
  return out;
}

}  // namespace fuzzydb
