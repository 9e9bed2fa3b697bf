// Shared harness utilities for the figure-reproduction benchmarks: a tiny
// --key=value flag parser that fails a run given a flag the binary never
// read, and fixed-width table printing so each binary emits the same
// rows/series its paper figure reports.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace mlkv::bench {

class Flags {
 public:
  Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        stray_.push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_.emplace_back(arg, "1");
      } else {
        kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
  }

  int64_t Int(const std::string& name, int64_t def) const {
    const std::string* v = Find(name);
    return v != nullptr ? std::strtoll(v->c_str(), nullptr, 10) : def;
  }
  double Double(const std::string& name, double def) const {
    const std::string* v = Find(name);
    return v != nullptr ? std::strtod(v->c_str(), nullptr) : def;
  }
  bool Bool(const std::string& name, bool def) const {
    const std::string* v = Find(name);
    return v != nullptr ? *v != "0" && *v != "false" : def;
  }
  std::string Str(const std::string& name, const std::string& def) const {
    const std::string* v = Find(name);
    return v != nullptr ? *v : def;
  }
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // --smoke: CI sanity mode. Every bench binary must finish in seconds.
  bool Smoke() const { return Bool("smoke", false); }

  // Flag value with a separate tiny default under --smoke. An explicit
  // --name=value always wins over both defaults.
  int64_t Int(const std::string& name, int64_t def, int64_t smoke_def) const {
    if (Has(name)) return Int(name, def);
    return Smoke() ? smoke_def : def;
  }
  std::string Str(const std::string& name, const std::string& def,
                  const std::string& smoke_def) const {
    if (Has(name)) return Str(name, def);
    return Smoke() ? smoke_def : def;
  }

  // The exit code of a run: 0 when the binary read every flag it was
  // given, else 2 after a usage error naming each flag it never read (and
  // each argument that is not a --flag). Call it last in main, so a
  // misspelled flag (--hedgee) fails the run instead of silently dropping
  // what it meant to switch on. --smoke is accepted everywhere: every
  // bench takes it (scripts/run_bench_smoke.sh).
  int RejectUnread() const {
    size_t bad = 0;
    for (const auto& [k, v] : kv_) {
      if (k == "smoke" || read_.count(k) != 0) continue;
      std::fprintf(stderr, "%s: unknown flag --%s (or unused in this mode)\n",
                   program_.c_str(), k.c_str());
      ++bad;
    }
    for (const std::string& a : stray_) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   a.c_str());
      ++bad;
    }
    if (bad == 0) return 0;
    std::fprintf(stderr, "usage: %s [--smoke] [--name[=value] ...]\n",
                 program_.c_str());
    return 2;
  }

 private:
  // The value of --name (nullptr when absent); records that it was read.
  // Not synchronized: every bench reads its flags on the main thread.
  const std::string* Find(const std::string& name) const {
    read_.insert(name);
    for (const auto& [k, v] : kv_) {
      if (k == name) return &v;
    }
    return nullptr;
  }

  std::string program_;
  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> stray_;
  mutable std::set<std::string> read_;
};

// Fixed-width table: Header(...) then Row(...) with matching arity.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {}

  void PrintHeader() const {
    for (const auto& c : columns_) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
    for (size_t i = 0; i < columns_.size() * static_cast<size_t>(width_); ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void Cell(const std::string& s) { cells_.push_back(s); }
  void Cell(double v, const char* fmt = "%.2f") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    cells_.emplace_back(buf);
  }
  void Cell(uint64_t v) { cells_.push_back(std::to_string(v)); }
  void Cell(int64_t v) { cells_.push_back(std::to_string(v)); }
  void Cell(int v) { cells_.push_back(std::to_string(v)); }

  void EndRow() {
    for (const auto& c : cells_) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
    std::fflush(stdout);
    cells_.clear();
  }

 private:
  std::vector<std::string> columns_;
  int width_;
  std::vector<std::string> cells_;
};

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

// Pretty throughput: "12.3K" / "4.5M".
inline std::string Human(double v) {
  char buf[32];
  if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace mlkv::bench
