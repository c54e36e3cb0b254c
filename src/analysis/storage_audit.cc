#include "analysis/storage_audit.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace fuzzydb {

namespace {

// Bitwise double identity — the contract is stronger than ==: it also
// distinguishes -0.0 from 0.0 and would catch any re-association that
// happens to round the same on most inputs.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string Bits(double v) {
  return std::to_string(v) + " (0x" +
         std::to_string(std::bit_cast<uint64_t>(v)) + ")";
}

using Knn = std::vector<std::pair<size_t, double>>;

// First divergence between two top-k answers, as a witness; empty when
// bitwise identical (indices, order, distance bits).
void CompareKnn(AuditReport* report, const std::string& contract,
                const std::string& context, const Knn& expected,
                const Knn& got) {
  report->CountCheck();
  if (expected.size() != got.size()) {
    report->Fail(contract, context + ": answer sizes differ, " +
                               std::to_string(expected.size()) + " vs " +
                               std::to_string(got.size()));
    return;
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    if (expected[r].first != got[r].first ||
        !SameBits(expected[r].second, got[r].second)) {
      report->Fail(contract,
                   context + ": first divergence at rank " + std::to_string(r) +
                       ": expected (idx " + std::to_string(expected[r].first) +
                       ", d " + Bits(expected[r].second) + "), got (idx " +
                       std::to_string(got[r].first) + ", d " +
                       Bits(got[r].second) + ")");
      return;
    }
  }
}

// Byte equality of two int8 tiers: geometry, scales, residuals and codes.
bool SameTier(const QuantizedStore& a, const QuantizedStore& b) {
  if (a.size() != b.size() || a.dim() != b.dim() ||
      a.scales().size() != b.scales().size() ||
      std::memcmp(a.scales().data(), b.scales().data(),
                  b.scales().size() * sizeof(double)) != 0 ||
      std::memcmp(a.residuals().data(), b.residuals().data(),
                  b.residuals().size() * sizeof(double)) != 0) {
    return false;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    if (std::memcmp(a.RowCodes(i).data(), b.RowCodes(i).data(),
                    b.RowCodes(i).size()) != 0) {
      return false;
    }
  }
  return true;
}

void CompareCascadeWork(AuditReport* report, const std::string& context,
                        const CascadeStats& ram, const CascadeStats& paged) {
  report->CountCheck();
  // The arithmetic counters are deterministic in (rows, query, options,
  // shard split) and independent of the memory hierarchy; the pool
  // counters are intentionally excluded (they are the hierarchy).
  if (ram.quantized_bound_computations != paged.quantized_bound_computations ||
      ram.bound_computations != paged.bound_computations ||
      ram.candidates_refined != paged.candidates_refined ||
      ram.full_distance_computations != paged.full_distance_computations ||
      ram.bytes_scanned_quantized != paged.bytes_scanned_quantized ||
      ram.bytes_scanned_prefix != paged.bytes_scanned_prefix ||
      ram.bytes_scanned_refine != paged.bytes_scanned_refine) {
    report->Fail("cascade-work",
                 context + ": refinement counters diverge between RAM and " +
                     "paged cascade (same rows, same options)");
  }
}

}  // namespace

AuditReport AuditPagingEquivalence(const storage::PagedEmbeddingStore& paged,
                                   const EmbeddingStore& ram,
                                   const StorageAuditOptions& options) {
  AuditReport report("paging-equivalence");

  // --- Geometry -----------------------------------------------------------
  report.CountCheck();
  if (paged.size() != ram.size() || paged.dim() != ram.dim() ||
      paged.stride() != ram.stride()) {
    report.Fail("geometry", "size/dim/stride disagree: paged (" +
                                std::to_string(paged.size()) + ", " +
                                std::to_string(paged.dim()) + ", " +
                                std::to_string(paged.stride()) + ") vs ram (" +
                                std::to_string(ram.size()) + ", " +
                                std::to_string(ram.dim()) + ", " +
                                std::to_string(ram.stride()) + ")");
    return report;  // nothing downstream is comparable
  }
  report.CountCheck();
  if (paged.stride() != EmbeddingStore::RowStride(paged.dim())) {
    report.Fail("geometry", "on-disk stride " + std::to_string(paged.stride()) +
                                " is not RowStride(dim) = " +
                                std::to_string(
                                    EmbeddingStore::RowStride(paged.dim())));
  }

  // --- Row bytes ----------------------------------------------------------
  // Every page, every row, every double of the padded row, compared bitwise
  // through the raw page-read path (no pool, no kernels) against the RAM
  // row's column-group lines, whose padding lanes must also be +0.0 —
  // divergence here blames the file or the scatter into groups, divergence
  // only below blames the machinery.
  {
    constexpr size_t kLine = EmbeddingStore::kGroupDim;
    const size_t page_bytes = paged.pool().page_bytes();
    const size_t rows_per_page = page_bytes / (paged.stride() * sizeof(double));
    std::vector<char> page(page_bytes);
    const uint64_t pages =
        (paged.size() + rows_per_page - 1) / rows_per_page;
    for (uint64_t p = 0; p < pages && report.ok(); ++p) {
      report.CountCheck();
      Status read = paged.ReadPage(p, page);
      if (!read.ok()) {
        report.Fail("row-bytes", "ReadPage(" + std::to_string(p) +
                                     ") failed: " + read.ToString());
        break;
      }
      const size_t begin = p * rows_per_page;
      const size_t n = std::min(rows_per_page, paged.size() - begin);
      for (size_t i = 0; i < n && report.ok(); ++i) {
        const char* disk = page.data() + i * paged.stride() * sizeof(double);
        for (size_t g = 0; g < ram.groups() && report.ok(); ++g) {
          const double* line = ram.Line(begin + i, g);
          if (std::memcmp(disk + g * sizeof(double) * kLine, line,
                          sizeof(double) * kLine) != 0) {
            report.Fail("row-bytes",
                        "row " + std::to_string(begin + i) + ", group " +
                            std::to_string(g) +
                            ": bytes differ between file and RAM");
            break;
          }
          for (size_t j = std::max(ram.dim(), g * kLine);
               j < (g + 1) * kLine; ++j) {
            if (std::bit_cast<uint64_t>(line[j - g * kLine]) != 0) {
              report.Fail("row-bytes", "row " + std::to_string(begin + i) +
                                           ": padding lane " +
                                           std::to_string(j) + " is not 0");
              break;
            }
          }
        }
      }
    }
  }

  // --- Quantized tier -----------------------------------------------------
  report.CountCheck();
  if (paged.has_quantized() != ram.has_quantized()) {
    report.Fail("quantized-parts", "tier presence disagrees: paged " +
                                       std::to_string(paged.has_quantized()) +
                                       " vs ram " +
                                       std::to_string(ram.has_quantized()));
  } else if (paged.has_quantized()) {
    // Against a tier built afresh from the RAM rows, not against the RAM
    // store's own tier, which LoadToMemory copies from the file.
    const QuantizedStore rebuilt = QuantizedStore::Build(
        ram.size(), ram.dim(),
        [&ram](size_t i, std::span<double> out) { ram.CopyRow(i, out); });
    for (const auto& [name, tier] :
         {std::pair{"persisted", &paged.quantized()},
          std::pair{"RAM", &ram.quantized()}}) {
      report.CountCheck();
      if (!SameTier(*tier, rebuilt)) {
        report.Fail("quantized-parts",
                    std::string(name) + " int8 tier differs from the tier " +
                        "rebuilt from the RAM rows (scales, residuals, or " +
                        "codes)");
      }
    }
  }

  // --- Query surface ------------------------------------------------------
  for (size_t t = 0; t < options.targets.size(); ++t) {
    const std::vector<double>& target = options.targets[t];
    const std::string tag = "target " + std::to_string(t);

    // BatchDistances, serial then sharded.
    std::vector<double> expected(ram.size());
    ram.BatchDistances(target, expected);
    std::vector<size_t> shard_sweep = {1};
    shard_sweep.insert(shard_sweep.end(), options.shard_counts.begin(),
                       options.shard_counts.end());
    for (size_t shards : shard_sweep) {
      std::vector<double> got(ram.size());
      report.CountCheck();
      Status st = paged.BatchDistances(target, got, nullptr, shards);
      if (!st.ok()) {
        report.Fail("batch-distances",
                    tag + ": paged BatchDistances failed: " + st.ToString());
        continue;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (!SameBits(expected[i], got[i])) {
          report.Fail("batch-distances",
                      tag + ", shards=" + std::to_string(shards) +
                          ": first divergence at row " + std::to_string(i) +
                          ": " + Bits(expected[i]) + " vs " + Bits(got[i]));
          break;
        }
      }
    }

    // ExactKnn against RAM, across shard counts.
    const Knn exact_expected = ram.ExactKnn(target, options.k);
    for (size_t shards : shard_sweep) {
      Result<Knn> got = paged.ExactKnn(target, options.k, nullptr, shards);
      if (!got.ok()) {
        report.CountCheck();
        report.Fail("exact-knn",
                    tag + ": paged ExactKnn failed: " + got.status().ToString());
        continue;
      }
      CompareKnn(&report, "exact-knn",
                 tag + ", shards=" + std::to_string(shards), exact_expected,
                 *got);
    }

    // CascadeKnn with the quantized level −1 on and off; the answers must
    // also match ExactKnn (the cascade's own no-false-dismissals contract).
    for (bool use_quantized : {true, false}) {
      CascadeOptions cascade = options.cascade;
      cascade.use_quantized = use_quantized;
      const std::string mode =
          tag + (use_quantized ? ", int8 on" : ", int8 off");
      const Knn cascade_expected = ram.CascadeKnn(target, options.k, cascade);
      CompareKnn(&report, "cascade-vs-exact", mode, exact_expected,
                 cascade_expected);
      for (size_t shards : shard_sweep) {
        // Both stores run one driver, so at the same shard count they do
        // the same arithmetic work, counter for counter.
        CascadeStats ram_stats;
        ram.CascadeKnn(target, options.k, cascade, &ram_stats, nullptr,
                       shards);
        CascadeStats paged_stats;
        Result<Knn> got = paged.CascadeKnn(target, options.k, cascade,
                                           &paged_stats, nullptr, shards);
        if (!got.ok()) {
          report.CountCheck();
          report.Fail("cascade-knn", mode + ": paged CascadeKnn failed: " +
                                         got.status().ToString());
          continue;
        }
        const std::string context =
            mode + ", shards=" + std::to_string(shards);
        CompareKnn(&report, "cascade-knn", context, cascade_expected, *got);
        CompareCascadeWork(&report, context, ram_stats, paged_stats);
      }
    }
  }
  return report;
}

}  // namespace fuzzydb
