// Machine-readable bench output: a flat JSON object of "key": value pairs
// (dotted keys for structure, e.g. "cascade.ops_per_sec"), written in one
// shot so later PRs can track a perf trajectory across runs.
//
// Standalone (no benchmark/gtest dependency) so the emitter itself is unit
// tested: earlier revisions wrote bare `nan`/`inf` tokens and raw strings,
// which silently produced invalid JSON the first time a metric divided by
// zero or a label contained a quote.

#ifndef FUZZYDB_BENCH_JSON_REPORT_H_
#define FUZZYDB_BENCH_JSON_REPORT_H_

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace fuzzydb {

// Thread-safe: the entry list is GUARDED_BY an annotated mutex, so bench
// sections running on pool threads may Set() into one shared report (the
// capability annotations make any unlocked access a compile error on
// Clang). Each method takes the lock once; none calls another under it.
class JsonReport {
 public:
  void Set(const std::string& key, double value) {
    // JSON has no nan/inf literals; emit null rather than corrupt the file.
    if (!std::isfinite(value)) {
      Append(key, "null");
      return;
    }
    std::ostringstream os;
    os.precision(10);
    os << value;
    Append(key, os.str());
  }
  void Set(const std::string& key, size_t value) {
    Append(key, std::to_string(value));
  }
  void Set(const std::string& key, bool value) {
    Append(key, value ? "true" : "false");
  }
  void Set(const std::string& key, const std::string& value) {
    Append(key, Quote(value));
  }

  /// Records the host's parallelism caveat machine-readably: every bench
  /// report carries hardware_concurrency and a boolean contention_only flag
  /// (true on 1-thread hosts, where parallel speedups are scheduling
  /// artifacts) so downstream tooling can refuse to compare across regimes.
  /// Returns the flag for callers that gate further output on it.
  bool SetHostParallelism(size_t hardware_concurrency) {
    const bool contention_only = hardware_concurrency <= 1;
    Set("config.hardware_concurrency", hardware_concurrency);
    Set("contention_only", contention_only);
    return contention_only;
  }

  /// Records which int8 block-SSD kernel the runtime dispatcher selected
  /// ("scalar" / "avx2" / "avx512vnni") next to the contention_only stamp:
  /// like parallelism, the SIMD tier is a host property downstream tooling
  /// must see before comparing cycle counts across runs.
  void SetKernelDispatch(const std::string& kernel) {
    Set("config.simd_dispatch", kernel);
  }

  /// The full `{ "k": v, ... }` document.
  std::string ToString() const {
    MutexLock lock(mu_);
    std::ostringstream out;
    out << "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << "  " << Quote(entries_[i].first) << ": " << entries_[i].second
          << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return out.str();
  }

  size_t size() const {
    MutexLock lock(mu_);
    return entries_.size();
  }

  /// Raw serialized value recorded for `key` ("" if absent; last write wins).
  std::string Lookup(const std::string& key) const {
    MutexLock lock(mu_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->first == key) return it->second;
    }
    return "";
  }

  /// True when writing this report over `existing_content` would replace a
  /// real multi-core measurement with a contention-only one: the old file
  /// says `"contention_only": false` and the new report says true. Pure
  /// string predicate so the guard is unit-testable without touching disk.
  static bool WouldDowngrade(const std::string& existing_content,
                             bool new_contention_only) {
    return new_contention_only &&
           existing_content.find("\"contention_only\": false") !=
               std::string::npos;
  }

  /// Writes ToString() to `path` and says so on stdout.
  void WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return;
    }
    out << ToString();
    std::cout << "wrote " << path << " (" << size() << " metrics)\n";
  }

  /// WriteFile, but refuses to silently downgrade: if `path` already holds a
  /// multi-core run and this report is contention-only (1 hardware thread),
  /// the report is diverted to `path + ".contention-only"` with a loud
  /// warning so the real numbers survive. Returns the path actually written.
  std::string WriteFileGuarded(const std::string& path) const {
    const bool contention_only = Lookup("contention_only") == "true";
    std::ifstream existing(path);
    if (existing) {
      std::stringstream buf;
      buf << existing.rdbuf();
      if (WouldDowngrade(buf.str(), contention_only)) {
        const std::string diverted = path + ".contention-only";
        std::cerr << "WARNING: " << path
                  << " holds a multi-core run; this host has 1 hardware "
                     "thread, so the contention-only report goes to "
                  << diverted << " instead of overwriting it\n";
        WriteFile(diverted);
        return diverted;
      }
    }
    WriteFile(path);
    return path;
  }

 private:
  // RFC 8259 string escaping: quote, backslash, and control characters.
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  void Append(const std::string& key, std::string value) {
    MutexLock lock(mu_);
    entries_.emplace_back(key, std::move(value));
  }

  mutable Mutex mu_;
  std::vector<std::pair<std::string, std::string>> entries_ GUARDED_BY(mu_);
};

}  // namespace fuzzydb

#endif  // FUZZYDB_BENCH_JSON_REPORT_H_
