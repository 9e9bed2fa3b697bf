// mlkv_perf: runs one MLKV benchmark workload once and prints one JSON
// object (metrics, checks, provenance) on stdout. perfbench/run.py builds
// and drives it; see that file for the command line users type.
//
// Everything here measures the program from the outside. Each seam is
// wrapped in a TimedBackend decorator:
//   caller -> backend           (trainer workers or bench clients)
//   KvServer -> CachingBackend  (serve-zipf, one per server)
//   CachingBackend -> engine    (serve-zipf, one per server)
// The decorators count calls, keys, busy and failed keys and per-call
// latency. In the traced phase they also record spans (layer, start, end,
// parent, request id) in memory. Layer counters come from the public
// surfaces: io_stats(), device_bytes_*(), CollectMetrics(sink) and each
// KvServer's metrics() registry. Client-side sub-RPC spans come from the
// obs::RequestTrace the bench installs around a traced cluster call; the
// program propagates its request id to the servers, which is how the
// server-side decorator spans are stitched to the client call.
//
// Phases: 0 = set-up and warm-up (nothing recorded), 1 = untraced
// measurement (end-to-end metrics), 2 = traced measurement (per-layer
// metrics). A --trace 1 run measures phase 1 and phase 2 for half the time
// each (train-ooc: half the batches each, phase 2 on a fresh table), so the
// tracing overhead is their throughput ratio.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "backend/kv_backend.h"
#include "cluster/cluster_backend.h"
#include "cluster/cluster_map.h"
#include "common/random.h"
#include "common/simd.h"
#include "io/async_io.h"
#include "io/file_device.h"
#include "mlkv/mlkv.h"
#include "net/kv_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/batch_io.h"
#include "train/ctr_trainer.h"

namespace mlkv::perf {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mlkv_perf: %s\n", what.c_str());
  std::exit(1);
}

void Must(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Phases and spans
// ---------------------------------------------------------------------------

std::atomic<int> g_phase{0};
constexpr int kPhases = 3;

enum Layer : uint8_t { kOp, kCaller, kRpc, kServe, kEngine };

// One timed interval at a layer boundary. `parent` is the enclosing span on
// the same thread (0 = none); spans on other threads of the same request
// share `req` and are joined by (req, where) at analysis.
struct Span {
  uint64_t req = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  Layer layer = kOp;
  uint8_t where = 0;  // server index for rpc / serve / engine spans
};

constexpr size_t kMaxSpans = size_t{2} << 20;

struct SpanBuffer {
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // one per thread
std::atomic<uint32_t> g_next_span{1};
std::atomic<size_t> g_span_count{0};
std::atomic<size_t> g_spans_dropped{0};
thread_local SpanBuffer* tls_buffer = nullptr;
thread_local uint64_t tls_req = 0;
thread_local uint32_t tls_parent = 0;

uint32_t NextSpanId() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpan(const Span& s) {
  if (g_span_count.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_spans_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<SpanBuffer>());
    tls_buffer = g_buffers.back().get();
  }
  tls_buffer->spans.push_back(s);
}

// Only called once every recording thread is idle (phase back at 0 and the
// callers joined).
std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// Timed decorator
// ---------------------------------------------------------------------------

// get = tracked MultiGet, peek = untracked MultiGet (serving reads, eval and
// busy re-reads), update = MultiApplyGradient.
enum Op { kGet, kPeek, kPut, kUpdate, kLookahead, kNumOps };
const char* const kOpNames[kNumOps] = {"get", "peek", "put", "update",
                                       "lookahead"};

struct Call {
  uint64_t start_ns;
  float latency_us;
  uint32_t keys;
};

float Quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct OpStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> keys{0};
  std::atomic<uint64_t> busy_keys{0};
  std::atomic<uint64_t> failed_keys{0};
  std::atomic<uint64_t> busy_ns{0};
  std::mutex mu;
  std::vector<Call> log;  // one per call

  void Record(size_t n, size_t busy, size_t failed, uint64_t t0, uint64_t ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    keys.fetch_add(n, std::memory_order_relaxed);
    busy_keys.fetch_add(busy, std::memory_order_relaxed);
    failed_keys.fetch_add(failed, std::memory_order_relaxed);
    busy_ns.fetch_add(ns, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    // Reserved once (pages are touched only as calls arrive), so the log's
    // share of peak_rss_mb grows with the call count instead of jumping
    // with vector doubling.
    if (log.capacity() == 0) log.reserve(size_t{1} << 21);
    log.push_back({t0, static_cast<float>(static_cast<double>(ns) * 1e-3),
                   static_cast<uint32_t>(n)});
  }

  // Latencies of the calls that started in [lo, hi).
  std::vector<float> Latencies(uint64_t lo = 0, uint64_t hi = UINT64_MAX) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<float> v;
    for (const Call& c : log) {
      if (c.start_ns >= lo && c.start_ns < hi) v.push_back(c.latency_us);
    }
    return v;
  }
  uint64_t KeysIn(uint64_t lo, uint64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = 0;
    for (const Call& c : log) {
      if (c.start_ns >= lo && c.start_ns < hi) n += c.keys;
    }
    return n;
  }

  // Exact percentile over every recorded call (0 when none).
  double Percentile(double q) { return Quantile(Latencies(), q); }
};

struct SeamStats {
  OpStats op[kPhases][kNumOps];
};

class TimedBackend : public KvBackend {
 public:
  TimedBackend(std::unique_ptr<KvBackend> inner, Layer layer, uint8_t where,
               SeamStats* stats)
      : inner_(std::move(inner)), layer_(layer), where_(where), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return inner_->shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    return Timed(options.untracked ? kPeek : kGet, keys.size(),
                 [&] { return inner_->MultiGet(keys, out, options); });
  }
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    return Timed(kPut, keys.size(),
                 [&] { return inner_->MultiPut(keys, values); });
  }
  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    return Timed(kUpdate, keys.size(), [&] {
      return inner_->MultiApplyGradient(keys, grads, lr);
    });
  }
  Status Lookahead(std::span<const Key> keys) override {
    return Timed(kLookahead, keys.size(),
                 [&] { return inner_->Lookahead(keys); });
  }
  void WaitIdle() override { inner_->WaitIdle(); }
  uint64_t device_bytes_read() const override {
    return inner_->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return inner_->device_bytes_written();
  }
  BackendIoStats io_stats() const override { return inner_->io_stats(); }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    inner_->CollectMetrics(sink);
  }

 private:
  template <typename F>
  auto Timed(Op op, size_t n, F&& call) -> decltype(call()) {
    const int phase = g_phase.load(std::memory_order_relaxed);
    if (phase == 0) return call();
    const bool traced = phase == 2;
    const uint64_t saved_req = tls_req;
    const uint32_t saved_parent = tls_parent;
    uint32_t id = 0;
    if (traced) {
      if (layer_ == kServe) {
        // A server worker thread: the request id arrived on the wire.
        const obs::RequestTrace* t = obs::CurrentTrace();
        tls_req = t != nullptr ? t->request_id() : 0;
        tls_parent = 0;
      }
      id = NextSpanId();
    }
    const uint32_t parent = tls_parent;
    if (traced) tls_parent = id;
    const uint64_t t0 = NowNs();
    auto r = call();
    const uint64_t t1 = NowNs();
    if (traced) {
      RecordSpan({tls_req, t0, t1, id, parent, layer_, where_});
      tls_req = saved_req;
      tls_parent = saved_parent;
    }
    size_t busy = 0, failed = 0;
    if constexpr (std::is_same_v<decltype(r), BatchResult>) {
      busy = r.busy;
      failed = r.failed;
    } else {
      failed = r.ok() ? 0 : n;
    }
    stats_->op[phase][op].Record(n, busy, failed, t0, t1 - t0);
    return r;
  }

  std::unique_ptr<KvBackend> inner_;
  const Layer layer_;
  const uint8_t where_;
  SeamStats* stats_;
};

// ---------------------------------------------------------------------------
// Registry readers
// ---------------------------------------------------------------------------

using Samples = std::map<std::string, double>;  // "name{k=v,...}" -> value

Samples Collect(const KvBackend& b) {
  obs::MetricsSink sink;
  b.CollectMetrics(&sink);
  Samples out;
  for (const auto& s : sink.samples()) {
    std::string key = s.name + "{";
    for (const auto& [k, v] : s.labels) key += k + "=" + v + ",";
    out[key + "}"] += s.value;
  }
  return out;
}

// Prometheus text -> "name{labels}" -> value (comments skipped).
Samples ParseExposition(const std::string& text) {
  Samples out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string key = line.substr(0, sp);
    if (key.find('{') == std::string::npos) key += "{}";
    out[key] += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

void Accumulate(Samples* into, const Samples& from) {
  for (const auto& [k, v] : from) (*into)[k] += v;
}

// Sum of every sample of family `name` whose key contains `label` ("" = all).
double Family(const Samples& s, const std::string& name,
              const std::string& label = "") {
  double sum = 0;
  const std::string prefix = name + "{";
  for (auto it = s.lower_bound(prefix);
       it != s.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (label.empty() || it->first.find(label) != std::string::npos) {
      sum += it->second;
    }
  }
  return sum;
}

double Delta(const Samples& after, const Samples& before,
             const std::string& name, const std::string& label = "") {
  return Family(after, name, label) - Family(before, name, label);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t n = 0;  // samples behind the value
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per-slice [keys/s, read p50, read p99, update p50, update p99] of the
  // untraced phase, as JSON.
  std::string slices = "[]";

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t n) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit, n});
  }
  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
};

std::string Fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"train-ooc", "kv-mem", "serve-zipf"};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  uint64_t read_latency_us = 30;
  std::string data_dir;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "mlkv_perf: %s\n"
               "usage: mlkv_perf --workload {train-ooc,kv-mem,serve-zipf} "
               "--data-dir DIR [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--read-latency-us US] [--spans-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    auto number = [&](double lo, double hi) {
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(x >= lo && x <= hi)) {
        Usage("bad value for " + arg + ": " + v);
      }
      return x;
    };
    if (arg == "--workload") {
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), v) ==
          std::end(kWorkloads)) {
        Usage("unknown workload " + v);
      }
      f.workload = v;
    } else if (arg == "--seed") {
      f.seed = static_cast<uint64_t>(number(0, 1e15));
    } else if (arg == "--seconds") {
      f.seconds = number(1, 600);
    } else if (arg == "--trace") {
      f.trace = static_cast<int>(number(0, 1));
    } else if (arg == "--read-latency-us") {
      f.read_latency_us = static_cast<uint64_t>(number(0, 100000));
    } else if (arg == "--data-dir") {
      f.data_dir = v;
    } else if (arg == "--spans-out") {
      f.spans_out = v;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (f.workload.empty()) Usage("--workload is required");
  if (f.data_dir.empty()) Usage("--data-dir is required");
  return f;
}

// ---------------------------------------------------------------------------
// Shared pieces of the workloads
// ---------------------------------------------------------------------------

constexpr int kCallers = 2;
// Set-up runs at least kMinSetupReps times and keeps going until
// kSetupBudgetS seconds are spent (at most kMaxSetupReps), so a cheap set-up
// gets a median over many repetitions.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 3.0;
constexpr uint32_t kDim = 16;

// Runs `make` repeatedly (each time in a fresh directory, tearing the
// previous stack down first) and keeps the last stack; returns the median
// set-up time in seconds and the repetition count.
template <typename Stack>
std::pair<double, int> RepeatedSetup(
    const std::string& root, std::unique_ptr<Stack>* keep,
    const std::function<void(const std::string&, Stack*)>& make) {
  std::vector<double> secs;
  double spent = 0;
  for (int r = 0; r < kMaxSetupReps &&
                  (r < kMinSetupReps || spent < kSetupBudgetS);
       ++r) {
    keep->reset();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    const std::string dir = root + "/rep" + std::to_string(r);
    std::filesystem::create_directories(dir);
    const uint64_t t0 = NowNs();
    auto stack = std::make_unique<Stack>();
    make(dir, stack.get());
    secs.push_back(Seconds(NowNs() - t0));
    spent += secs.back();
    *keep = std::move(stack);
  }
  return {Median(secs), static_cast<int>(secs.size())};
}

// Bench-side shadow of the table for the kv workloads: every row starts at
// Preload(k, j); each applied gradient batch sends +Grad or -Grad (the sign
// alternates per batch of a client), so a row ends at
// Preload - kLr * net * Grad with `net` the signed count of its steps. Every
// step is a multiple of 2^-22 and `net` stays small even for the hottest
// key, so the expected value is exact in float. Steps are counted for the
// sampled keys only.
constexpr float kLr = 1.0f / 1024;
constexpr Key kSampleEvery = 64;

float Preload(Key k, uint32_t j) {
  return static_cast<float>((k * 7 + j * 13) % 256) / 256.0f;
}
float Grad(Key k, uint32_t j) {
  return static_cast<float>(1 + (k + j) % 2) / 4096.0f;
}

struct Shadow {
  explicit Shadow(uint64_t rows) : net(rows / kSampleEvery + 1) {}
  std::vector<std::atomic<int64_t>> net;

  void Count(std::span<const Key> keys, const BatchResult& r, int sign) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] % kSampleEvery == 0 && r.codes[i] == Status::Code::kOk) {
        net[keys[i] / kSampleEvery].fetch_add(sign, std::memory_order_relaxed);
      }
    }
  }
};

void PreloadRows(KvBackend* b, uint64_t rows) {
  constexpr size_t kChunk = 4096;
  std::vector<Key> keys(kChunk);
  std::vector<float> values(kChunk * kDim);
  for (Key base = 0; base < rows; base += kChunk) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kChunk, rows - base));
    for (size_t i = 0; i < n; ++i) {
      keys[i] = base + i;
      for (uint32_t j = 0; j < kDim; ++j) values[i * kDim + j] = Preload(keys[i], j);
    }
    const BatchResult r = b->MultiPut({keys.data(), n}, values.data());
    if (r.failed > 0) Die("preload failed: " + r.first_error.ToString());
  }
}

// Reads every sampled key back (tracked reads, which bypass any serving
// cache) and compares with the shadow.
void VerifyShadow(KvBackend* b, uint64_t rows, const Shadow& shadow,
                  Report* rep) {
  std::vector<Key> keys;
  for (Key k = 0; k < rows; k += kSampleEvery) keys.push_back(k);
  std::vector<float> out(keys.size() * kDim);
  uint64_t bad = 0, moved = 0, max_net = 0;
  std::string first_bad;
  for (size_t base = 0; base < keys.size(); base += 4096) {
    const size_t n = std::min<size_t>(4096, keys.size() - base);
    const BatchResult r =
        b->MultiGet({keys.data() + base, n}, out.data() + base * kDim, {});
    for (size_t i = 0; i < n; ++i) {
      if (r.codes[i] != Status::Code::kOk) {
        ++bad;
        continue;
      }
      const Key k = keys[base + i];
      const int64_t u = shadow.net[k / kSampleEvery].load();
      moved += u != 0;
      max_net = std::max<uint64_t>(max_net, static_cast<uint64_t>(std::llabs(u)));
      for (uint32_t j = 0; j < kDim; ++j) {
        const double want = Preload(k, j) - static_cast<double>(u) * kLr * Grad(k, j);
        const double got = out[(base + i) * kDim + j];
        // Half a step (2^-22): one lost or doubled update shows.
        if (std::fabs(got - want) > 1e-7) {
          if (bad == 0) {
            first_bad = "key " + std::to_string(k) + " col " +
                        std::to_string(j) + ": got " + Fmt("%.7g", got) +
                        " want " + Fmt("%.7g", want);
          }
          ++bad;
          break;
        }
      }
    }
  }
  rep->AddCheck("shadow_values", bad == 0,
                std::to_string(keys.size()) + " sampled keys (" +
                    std::to_string(moved) + " moved, max |net| " +
                    std::to_string(max_net) + " steps), " +
                    std::to_string(bad) + " mismatched" +
                    (first_bad.empty() ? "" : "; first " + first_bad));
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Everything the layer counters say, snapshotted at a phase boundary.
struct Snapshot {
  BackendIoStats io;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  Samples engine;  // CollectMetrics of the engine seam(s)
  Samples client;  // CollectMetrics of the caller's backend
  Samples server;  // every KvServer registry
};

struct Stack {
  std::unique_ptr<TimedBackend> caller;
  std::vector<KvBackend*> engines;       // io / kv counters
  std::vector<net::KvServer*> servers;   // serve-zipf only
  std::vector<std::string> server_addrs;
};

Snapshot Take(const Stack& s) {
  Snapshot snap;
  for (KvBackend* e : s.engines) {
    const BackendIoStats io = e->io_stats();
    snap.io.disk_record_reads += io.disk_record_reads;
    snap.io.pages_flushed += io.pages_flushed;
    snap.io.pages_evicted += io.pages_evicted;
    snap.bytes_read += e->device_bytes_read();
    snap.bytes_written += e->device_bytes_written();
    Accumulate(&snap.engine, Collect(*e));
  }
  snap.client = Collect(*s.caller);
  const BackendIoStats client_io = s.caller->io_stats();
  snap.io.remote_requests = client_io.remote_requests;
  snap.io.remote_retries = client_io.remote_retries;
  for (net::KvServer* srv : s.servers) {
    Accumulate(&snap.server, ParseExposition(srv->metrics()->ExpositionText()));
  }
  return snap;
}

// Read/write ops that define a workload's end-to-end latencies.
struct OpMix {
  Op read;
  Op write;
};

// End-to-end figures of phase 1, whose calls started in [t0, t1). The
// window is cut into equal slices, at most one per second and each holding
// at least kMinSliceCalls reads and writes (so a slice's p99 has ten calls
// beyond it); each figure is the median over the slices of that slice's
// throughput or percentile, so a host hiccup in one slice does not move it.
// train-ooc makes too few calls to slice and gets one slice, i.e. figures
// over every call. The sample counts are the whole window's.
constexpr uint64_t kMinSliceCalls = 1000;

std::string AddEndToEnd(SeamStats* caller, const OpMix& mix, uint64_t t0,
                        uint64_t t1, Report* rep) {
  OpStats& r = caller->op[1][mix.read];
  OpStats& w = caller->op[1][mix.write];
  const uint64_t fewest = std::min(r.calls.load(), w.calls.load());
  const int slices = static_cast<int>(std::max<uint64_t>(
      1, std::min<uint64_t>((t1 - t0) / 1000000000, fewest / kMinSliceCalls)));
  const uint64_t step = (t1 - t0) / slices;
  std::vector<double> rate, r50, r99, w50, w99;
  std::string json = "[";
  for (int i = 0; i < slices; ++i) {
    const uint64_t lo = t0 + step * i, hi = lo + step;
    rate.push_back(static_cast<double>(r.KeysIn(lo, hi) + w.KeysIn(lo, hi)) /
                   Seconds(step));
    const std::vector<float> rl = r.Latencies(lo, hi), wl = w.Latencies(lo, hi);
    r50.push_back(Quantile(rl, 0.50));
    r99.push_back(Quantile(rl, 0.99));
    w50.push_back(Quantile(wl, 0.50));
    w99.push_back(Quantile(wl, 0.99));
    json += Fmt(i ? ", [%.6g" : "[%.6g", rate[i]) + Fmt(", %.6g", r50[i]) +
            Fmt(", %.6g", r99[i]) + Fmt(", %.6g", w50[i]) +
            Fmt(", %.6g]", w99[i]);
  }
  const uint64_t keys = r.keys.load() + w.keys.load();
  rep->Add("keys_per_s", Median(rate), "1/s", keys);
  rep->Add("read_p50_us", Median(r50), "us", r.calls.load());
  rep->Add("read_p99_us", Median(r99), "us", r.calls.load());
  rep->Add("update_p50_us", Median(w50), "us", w.calls.load());
  rep->Add("update_p99_us", Median(w99), "us", w.calls.load());
  return json + "]";
}

// Keys and failed keys of the reads and writes at the caller seam over one
// phase (lookahead keys are hints, not served keys).
void Tally(SeamStats* caller, int phase, uint64_t* keys, uint64_t* failed) {
  for (const Op op : {kGet, kPeek, kPut, kUpdate}) {
    *keys += caller->op[phase][op].keys.load();
    *failed += caller->op[phase][op].failed_keys.load();
  }
}

uint64_t ReadKeys(SeamStats* s, int phase) {
  return s->op[phase][kGet].keys.load() + s->op[phase][kPeek].keys.load();
}

// The backend.* group: caller-seam decorator stats of the traced phase.
void AddBackendLayer(SeamStats* caller, Report* rep) {
  for (const Op op : {kGet, kPeek, kPut, kUpdate, kLookahead}) {
    OpStats& s = caller->op[2][op];
    const std::string p = std::string("backend.") + kOpNames[op] + ".";
    const uint64_t calls = s.calls.load();
    rep->Add(p + "calls", static_cast<double>(calls), "count", calls);
    rep->Add(p + "keys", static_cast<double>(s.keys.load()), "count", calls);
    rep->Add(p + "busy_s", Seconds(s.busy_ns.load()), "s", calls);
    rep->Add(p + "p50_us", s.Percentile(0.50), "us", calls);
    rep->Add(p + "p99_us", s.Percentile(0.99), "us", calls);
    rep->Add(p + "failed", static_cast<double>(s.failed_keys.load()), "count",
             calls);
  }
  OpStats& g = caller->op[2][kGet];
  rep->Add("backend.get.retry_ratio",
           g.keys.load() ? static_cast<double>(g.busy_keys.load()) /
                               static_cast<double>(g.keys.load())
                         : 0.0,
           "ratio", g.keys.load());
}

// io.* and kv.* from the engine counters over the traced phase; `per` is
// the sample count the byte figures are divided by (trainer samples, or
// caller keys on the kv workloads).
void AddStorageLayers(const Snapshot& a, const Snapshot& b, uint64_t read_keys,
                      uint64_t per, Report* rep) {
  const double reads =
      static_cast<double>(b.io.disk_record_reads - a.io.disk_record_reads);
  rep->Add("io.disk_reads_per_key", read_keys ? reads / read_keys : 0, "ratio",
           read_keys);
  rep->Add("io.read_bytes_per_sample",
           per ? static_cast<double>(b.bytes_read - a.bytes_read) / per : 0,
           "B", per);
  rep->Add("io.write_bytes_per_sample",
           per ? static_cast<double>(b.bytes_written - a.bytes_written) / per : 0,
           "B", per);
  rep->Add("io.pages_flushed",
           static_cast<double>(b.io.pages_flushed - a.io.pages_flushed), "count", 1);
  rep->Add("io.pages_evicted",
           static_cast<double>(b.io.pages_evicted - a.io.pages_evicted), "count", 1);

  for (const char* name : {"inplace_updates", "rcu_appends", "promotions",
                           "promotions_skipped", "staleness_waits"}) {
    rep->Add(std::string("kv.") + name,
             Delta(b.engine, a.engine, std::string("mlkv_store_") + name + "_total"),
             "count", 1);
  }
  // Busiest shard's ops over the mean (serve-zipf sums the two engines'
  // shards of the same index).
  std::map<std::string, double> per_shard;
  const std::string fam = "mlkv_shard_ops_total{";
  for (auto it = b.engine.lower_bound(fam);
       it != b.engine.end() && it->first.compare(0, fam.size(), fam) == 0; ++it) {
    const size_t s = it->first.find("shard=");
    const std::string shard =
        it->first.substr(s, it->first.find(',', s) - s);
    const auto before = a.engine.find(it->first);
    per_shard[shard] += it->second - (before == a.engine.end() ? 0 : before->second);
  }
  double mx = 0, sum = 0;
  for (const auto& [_, v] : per_shard) {
    mx = std::max(mx, v);
    sum += v;
  }
  rep->Add("kv.shard_ops_max_over_mean",
           sum > 0 ? mx / (sum / static_cast<double>(per_shard.size())) : 0,
           "ratio", per_shard.size());
}

// Length of [lo, hi) covered by the union of `iv` (clipped).
uint64_t Covered(uint64_t lo, uint64_t hi,
                 std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cur);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cur = e;
    }
  }
  return covered;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  static const char* const kLayerNames[] = {"op", "caller", "rpc", "serve",
                                            "engine"};
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "req,id,parent,layer,where,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%u,%u,%s,%u,%llu,%llu\n",
                 static_cast<unsigned long long>(s.req), s.id, s.parent,
                 kLayerNames[s.layer], s.where,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

// Self times from the traced phase's spans. Request tree for the kv
// workloads: op -> caller; for serve-zipf: op -> caller -> rpc (one per
// server touched) -> serve -> engine. `unattributed` is op time not covered
// by the caller span, over all op time.
struct SpanSummary {
  double unattributed_share = 0;
  double cluster_self_us = 0;  // caller - union(rpc), mean per call
  double wire_us = 0;          // rpc - serve, mean per sub-RPC
  double serve_self_us = 0;    // serve - engine, mean per serve span
  uint64_t ops = 0, calls = 0, rpcs = 0, serves = 0, unmatched_rpcs = 0;
};

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  std::unordered_map<uint32_t, std::vector<const Span*>> children;
  std::unordered_map<uint64_t, std::vector<const Span*>> rpcs_of_req;
  std::unordered_map<uint64_t, const Span*> serve_of;  // (req, where)
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
    if (s.layer == kRpc) rpcs_of_req[s.req].push_back(&s);
    if (s.layer == kServe) serve_of[s.req * 256 + s.where] = &s;
  }
  auto intervals = [](const std::vector<const Span*>& v) {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const Span* s : v) iv.emplace_back(s->start_ns, s->end_ns);
    return iv;
  };
  uint64_t op_total = 0, op_self = 0, cluster_self = 0, wire = 0, serve_self = 0;
  const std::vector<const Span*> none;
  for (const Span& s : spans) {
    const uint64_t dur = s.end_ns - s.start_ns;
    const auto kids = children.find(s.id);
    const std::vector<const Span*>& ch = kids == children.end() ? none : kids->second;
    if (s.layer == kOp) {
      ++out.ops;
      op_total += dur;
      op_self += dur - Covered(s.start_ns, s.end_ns, intervals(ch));
    } else if (s.layer == kCaller) {
      const auto r = rpcs_of_req.find(s.req);
      if (r == rpcs_of_req.end() || s.req == 0) continue;
      ++out.calls;
      cluster_self += dur - Covered(s.start_ns, s.end_ns, intervals(r->second));
    } else if (s.layer == kRpc) {
      const auto sv = serve_of.find(s.req * 256 + s.where);
      if (sv == serve_of.end()) {
        ++out.unmatched_rpcs;
        continue;
      }
      ++out.rpcs;
      const uint64_t sd = sv->second->end_ns - sv->second->start_ns;
      wire += dur > sd ? dur - sd : 0;
    } else if (s.layer == kServe) {
      ++out.serves;
      serve_self += dur - Covered(s.start_ns, s.end_ns, intervals(ch));
    }
  }
  out.unattributed_share =
      op_total ? static_cast<double>(op_self) / static_cast<double>(op_total) : 0;
  if (out.calls) out.cluster_self_us = cluster_self * 1e-3 / out.calls;
  if (out.rpcs) out.wire_us = wire * 1e-3 / out.rpcs;
  if (out.serves) out.serve_self_us = serve_self * 1e-3 / out.serves;
  return out;
}

// ---------------------------------------------------------------------------
// kv-mem and serve-zipf: closed-loop clients
// ---------------------------------------------------------------------------

struct ClientMix {
  uint64_t rows;
  size_t batch;
  double write_frac;
  bool untracked_reads;
  bool trace_rpcs;  // install a RequestTrace so sub-RPC spans are recorded
  const std::vector<std::string>* server_addrs;
};

std::atomic<uint64_t> g_next_req{uint64_t{1} << 40};

// One closed-loop client: issues batches until `stop`.
void ClientLoop(KvBackend* caller, const ClientMix& mix, uint64_t seed, int w,
                Shadow* shadow, const std::atomic<bool>& stop) {
  // The key stream is drawn up front (during warm-up) so the timed loop
  // spends its time in the backend, not in the zipf sampler; batches walk
  // it with a shifted start on every pass.
  Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
  ZipfianGenerator zipf(mix.rows, 0.99, seed * 7919 + static_cast<uint64_t>(w));
  std::vector<Key> stream(size_t{1} << 20);
  for (Key& k : stream) k = zipf.NextScrambled();
  size_t pos = 0, pass = 0;
  int sign = 1;  // of the next gradient batch, flipped before each
  std::vector<Key> keys(mix.batch);
  std::vector<float> rows(mix.batch * kDim);
  MultiGetOptions read_opts;
  read_opts.untracked = mix.untracked_reads;
  while (!stop.load(std::memory_order_relaxed)) {
    const bool traced = g_phase.load(std::memory_order_relaxed) == 2;
    uint32_t op_id = 0;
    uint64_t t0 = 0;
    if (traced) {
      op_id = NextSpanId();
      tls_req = g_next_req.fetch_add(1, std::memory_order_relaxed);
      tls_parent = op_id;
      t0 = NowNs();
    }
    if (pos + mix.batch > stream.size()) pos = (++pass * 7919) % mix.batch;
    std::copy_n(stream.begin() + static_cast<ptrdiff_t>(pos), mix.batch,
                keys.begin());
    pos += mix.batch;
    const bool write = rng.NextDouble() < mix.write_frac;
    if (write) {
      sign = -sign;
      for (size_t i = 0; i < keys.size(); ++i) {
        for (uint32_t j = 0; j < kDim; ++j) {
          rows[i * kDim + j] = static_cast<float>(sign) * Grad(keys[i], j);
        }
      }
    }
    std::optional<obs::RequestTrace> trace;
    std::optional<obs::ScopedTraceContext> trace_scope;
    if (traced && mix.trace_rpcs) {
      trace.emplace("bench", tls_req);
      trace_scope.emplace(obs::TraceContext{&*trace, obs::RequestTrace::kNoParent});
    }
    const BatchResult r = write
                              ? caller->MultiApplyGradient(keys, rows.data(), kLr)
                              : caller->MultiGet(keys, rows.data(), read_opts);
    trace_scope.reset();
    if (write) shadow->Count(keys, r, sign);
    if (traced) {
      if (trace) {
        trace->Finish();
        trace->ForEachSpan([&](const obs::TraceSpan& s) {
          if (std::strcmp(s.stage, "rpc") != 0) return;
          const auto& addrs = *mix.server_addrs;
          const auto at = std::find(addrs.begin(), addrs.end(), s.detail);
          RecordSpan({tls_req, s.start_us * 1000, (s.start_us + s.dur_us) * 1000,
                      NextSpanId(), 0, kRpc,
                      static_cast<uint8_t>(at - addrs.begin())});
        });
      }
      RecordSpan({tls_req, t0, NowNs(), op_id, 0, kOp, 0});
      tls_req = 0;
      tls_parent = 0;
    }
  }
}

// Drives the clients through warm-up, phase 1 and (traced runs) phase 2.
// Returns the phase boundaries: phase 1 is [b[0], b[1]), phase 2 [b[1], b[2]).
std::vector<uint64_t> DriveClients(Stack* st, const ClientMix& mix,
                                   const Flags& flags, double warmup_s,
                                   Shadow* shadow, Snapshot* before,
                                   Snapshot* after) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int w = 0; w < kCallers; ++w) {
    clients.emplace_back(ClientLoop, st->caller.get(), std::cref(mix),
                         flags.seed, w, shadow, std::cref(stop));
  }
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(warmup_s);
  const double measure = flags.trace ? flags.seconds / 2 : flags.seconds;
  std::vector<uint64_t> bounds = {NowNs()};
  g_phase.store(1);
  sleep_s(measure);
  if (flags.trace) {
    *before = Take(*st);
    bounds.push_back(NowNs());
    g_phase.store(2);
    sleep_s(measure);
  }
  bounds.push_back(NowNs());
  stop.store(true);
  for (auto& c : clients) c.join();
  g_phase.store(0);
  if (flags.trace) *after = Take(*st);
  return bounds;
}

void RunKv(const Flags& flags, bool serve, Report* rep) {
  const uint64_t rows = 500000;
  static SeamStats caller_stats, serve_stats, engine_stats;

  // Each server: MLKV -> engine decorator -> CachingBackend(25k rows) ->
  // serve decorator -> KvServer. kv-mem: MLKV straight under the caller.
  struct KvStack : Stack {
    std::vector<std::unique_ptr<net::KvServer>> owned_servers;
    ~KvStack() {
      caller.reset();  // the client goes before the servers it talks to
      for (auto& s : owned_servers) s->Stop();
    }
  };
  std::unique_ptr<KvStack> st;
  const auto [setup_s, setup_reps] = RepeatedSetup<KvStack>(
      flags.data_dir + "/stack", &st, [&](const std::string& dir, KvStack* s) {
        BackendConfig cfg;
        cfg.dim = kDim;
        cfg.staleness_bound = kAspBound;
        if (!serve) {
          cfg.dir = dir;
          cfg.buffer_bytes = 128ull << 20;
          cfg.index_slots = 1ull << 20;
          std::unique_ptr<KvBackend> engine;
          Must(MakeBackend(BackendKind::kMlkv, cfg, &engine), "open");
          s->caller = std::make_unique<TimedBackend>(std::move(engine), kCaller,
                                                     0, &caller_stats);
          s->engines = {s->caller.get()};
          PreloadRows(s->caller.get(), rows);
          return;
        }
        std::vector<std::string> none;
        for (int i = 0; i < 2; ++i) {
          cfg.dir = dir + "/ep" + std::to_string(i);
          cfg.buffer_bytes = 64ull << 20;
          cfg.index_slots = 1ull << 19;
          std::unique_ptr<KvBackend> engine;
          Must(MakeBackend(BackendKind::kMlkv, cfg, &engine), "open");
          auto timed_engine = std::make_unique<TimedBackend>(
              std::move(engine), kEngine, static_cast<uint8_t>(i), &engine_stats);
          s->engines.push_back(timed_engine.get());
          std::unique_ptr<KvBackend> cached;
          Must(MakeCachingBackend(std::move(timed_engine), 25000, &cached),
               "cache");
          auto served = std::make_unique<TimedBackend>(
              std::move(cached), kServe, static_cast<uint8_t>(i), &serve_stats);
          net::KvServerOptions so;
          so.slow_request_log = [](const std::string&) {};
          s->owned_servers.push_back(
              std::make_unique<net::KvServer>(std::move(served), so));
          Must(s->owned_servers.back()->Start(), "server start");
          s->servers.push_back(s->owned_servers.back().get());
          s->server_addrs.push_back(s->owned_servers.back()->addr());
          none.emplace_back();
        }
        auto map = std::make_shared<cluster::ClusterMap>();
        Must(cluster::BuildClusterMap(s->server_addrs, none, /*route_bits=*/1,
                                      cluster::ReadPreference::kPrimary,
                                      /*epoch=*/1, map.get()),
             "cluster map");
        for (uint32_t i = 0; i < 2; ++i) s->servers[i]->UpdateClusterMap(map, i);
        cluster::ClusterBackendOptions co;
        co.endpoints = s->server_addrs;
        std::unique_ptr<KvBackend> client;
        Must(cluster::ClusterBackend::Connect(co, &client), "cluster connect");
        s->caller = std::make_unique<TimedBackend>(std::move(client), kCaller, 0,
                                                   &caller_stats);
        PreloadRows(s->caller.get(), rows);
      });

  // kv-mem: 50% tracked MultiGet / 50% MultiApplyGradient, batches of 256.
  // serve-zipf: 95% untracked MultiGet / 5% MultiApplyGradient, batches
  // of 128 (serving replicas read untracked; the writes make the cache
  // invalidate).
  const ClientMix mix{rows,  serve ? 128u : 256u, serve ? 0.05 : 0.5,
                      serve, serve, &st->server_addrs};
  const OpMix ops{serve ? kPeek : kGet, kUpdate};
  Shadow shadow(rows);
  Snapshot before, after;
  const std::vector<uint64_t> bounds =
      DriveClients(st.get(), mix, flags, 1.0, &shadow, &before, &after);

  uint64_t keys = 0, failed = 0;
  Tally(&caller_stats, 1, &keys, &failed);
  rep->attempted = keys;
  rep->failed = failed;
  rep->Add("setup_s", setup_s, "s", static_cast<uint64_t>(setup_reps));
  rep->slices = AddEndToEnd(&caller_stats, ops, bounds[0], bounds[1], rep);
  rep->Add("failed_frac", keys ? static_cast<double>(failed) / keys : 0, "ratio",
           keys);
  VerifyShadow(st->caller.get(), rows, shadow, rep);
  rep->AddCheck("no_failed_keys", failed == 0,
                std::to_string(failed) + " of " + std::to_string(keys));

  if (!flags.trace) return;
  uint64_t keys2 = 0, failed2 = 0;
  Tally(&caller_stats, 2, &keys2, &failed2);
  rep->attempted += keys2;
  rep->failed += failed2;
  const double rate1 = keys / Seconds(bounds[1] - bounds[0]);
  const double rate2 = keys2 / Seconds(bounds[2] - bounds[1]);
  AddBackendLayer(&caller_stats, rep);
  AddStorageLayers(before, after, ReadKeys(&caller_stats, 2), keys2, rep);

  const std::vector<Span> spans = CollectSpans();
  WriteSpans(flags.spans_out, spans);
  const SpanSummary sum = Summarize(spans);

  // serve.*: hit ratio from the two decorators around the cache.
  const uint64_t served = ReadKeys(&serve_stats, 2);
  const uint64_t engine_reads = ReadKeys(&engine_stats, 2);
  rep->Add("serve.hit_ratio",
           served ? 1.0 - static_cast<double>(engine_reads) / served : 0, "ratio",
           served);
  rep->Add("serve.cache_hit_ratio_registry",
           served ? Delta(after.server, before.server, "mlkv_cache_hits_total") /
                        served
                  : 0,
           "ratio", served);
  rep->Add("serve.evictions",
           Delta(after.server, before.server, "mlkv_cache_evictions_total"),
           "count", 1);
  rep->Add("serve.invalidations",
           static_cast<double>(serve_stats.op[2][kUpdate].keys.load() +
                               serve_stats.op[2][kPut].keys.load()),
           "count", 1);
  rep->Add("serve.self_us", sum.serve_self_us, "us", sum.serves);

  for (const char* stage : {"decode", "queue_wait", "execute", "send"}) {
    rep->Add(std::string("net.stage.") + stage + "_s",
             Delta(after.server, before.server, "mlkv_request_stage_seconds_sum",
                   std::string("stage=\"") + stage + "\""),
             "s", 1);
  }
  uint64_t calls2 = 0;
  for (int op = 0; op < kNumOps; ++op) calls2 += caller_stats.op[2][op].calls.load();
  const double rpcs =
      static_cast<double>(after.io.remote_requests - before.io.remote_requests);
  rep->Add("net.requests_per_call", calls2 ? rpcs / calls2 : 0, "ratio", calls2);
  rep->Add("net.wire_us", sum.wire_us, "us", sum.rpcs);
  rep->Add("net.rpc_retries",
           static_cast<double>(after.io.remote_retries - before.io.remote_retries),
           "count", 1);

  double ep_max = 0, ep_sum = 0;
  for (const std::string& addr : st->server_addrs) {
    const double v = Delta(after.client, before.client,
                           "mlkv_cluster_endpoint_requests_total",
                           "endpoint=" + addr + ",");
    ep_max = std::max(ep_max, v);
    ep_sum += v;
  }
  const size_t eps = st->server_addrs.size();
  rep->Add("cluster.subbatches_per_call", calls2 ? ep_sum / calls2 : 0, "ratio",
           calls2);
  rep->Add("cluster.endpoint_skew", ep_sum > 0 ? ep_max / (ep_sum / eps) : 0,
           "ratio", eps);
  rep->Add("cluster.self_us", sum.cluster_self_us, "us", sum.calls);
  rep->Add("cluster.wrong_partition_keys",
           Delta(after.server, before.server,
                 "mlkv_server_wrong_partition_keys_total"),
           "count", 1);
  if (serve) {
    rep->AddCheck("spans_stitched", sum.rpcs > 0 && sum.unmatched_rpcs == 0,
                  std::to_string(sum.rpcs) + " sub-RPCs matched, " +
                      std::to_string(sum.unmatched_rpcs) + " unmatched");
  }

  rep->Add("obs.trace_overhead", rate2 > 0 ? rate1 / rate2 - 1 : 0, "ratio", 2);
  rep->Add("obs.unattributed_share", sum.unattributed_share, "ratio", sum.ops);
  rep->Add("obs.spans_dropped", static_cast<double>(g_spans_dropped.load()),
           "count", spans.size());
}

// ---------------------------------------------------------------------------
// train-ooc: CtrTrainer over an out-of-core MLKV table
// ---------------------------------------------------------------------------

// Held-out AUC floors, fixed from seeded runs: at the benchmark's length
// (30 s, 720 batches per worker) seeds 1-20 reached 0.646-0.687. Shorter
// runs train less and only have to beat chance (0.5) clearly.
constexpr uint64_t kFullBatches = 720;
constexpr double kAucFloorFull = 0.62;
constexpr double kAucFloorShort = 0.55;

void RunTrain(const Flags& flags, Report* rep) {
  static SeamStats caller_stats;
  const uint64_t keys_total = 8 * 30000;
  std::unique_ptr<Stack> st;
  const std::function<void(const std::string&, Stack*)> make =
      [&](const std::string& dir, Stack* s) {
        BackendConfig cfg;
        cfg.dir = dir;
        cfg.dim = kDim;
        cfg.buffer_bytes = 8ull << 20;
        cfg.index_slots = 1ull << 19;
        cfg.staleness_bound = 8;
        std::unique_ptr<KvBackend> engine;
        Must(MakeBackend(BackendKind::kMlkv, cfg, &engine), "open");
        s->caller = std::make_unique<TimedBackend>(std::move(engine), kCaller, 0,
                                                   &caller_stats);
        s->engines = {s->caller.get()};
        PreloadKeys(s->caller.get(), keys_total);
      };
  const auto [setup_s, setup_reps] =
      RepeatedSetup<Stack>(flags.data_dir + "/stack", &st, make);

  // Batches per worker: ~24 per second of --seconds at this config's rate.
  const uint64_t batches = static_cast<uint64_t>(std::lround(24 * flags.seconds));
  CtrTrainerOptions o;
  o.data.num_fields = 8;
  o.data.field_cardinality = 30000;
  o.data.zipf_theta = 0.99;
  o.data.seed = flags.seed;
  o.dim = kDim;
  o.model = CtrModelKind::kFfnn;
  o.batch_size = 256;
  o.num_workers = kCallers;
  o.embedding_lr = 1.0f;
  o.lookahead_depth = 2;
  o.compute_micros_per_batch = 5000;
  o.seed = flags.seed;
  o.eval_samples = 2000;

  auto train = [&](int phase, uint64_t n) {
    o.train_batches = n;
    o.eval_every = static_cast<int>(n);
    g_phase.store(phase);
    CtrTrainer trainer(st->caller.get(), o);
    TrainResult r = trainer.Train();
    g_phase.store(0);
    return r;
  };

  const uint64_t t0 = NowNs();
  const TrainResult r1 = train(1, flags.trace ? batches / 2 : batches);
  const uint64_t t1 = NowNs();
  uint64_t keys = 0, failed = 0;
  Tally(&caller_stats, 1, &keys, &failed);
  rep->attempted = keys;
  rep->failed = failed;
  const OpMix ops{kGet, kPut};
  rep->Add("setup_s", setup_s, "s", static_cast<uint64_t>(setup_reps));
  rep->Add("train_samples_per_s", r1.throughput(), "1/s", r1.samples);
  rep->Add("train_auc", r1.final_metric, "auc", o.eval_samples);
  rep->slices = AddEndToEnd(&caller_stats, ops, t0, t1, rep);
  rep->Add("failed_frac", keys ? static_cast<double>(failed) / keys : 0, "ratio",
           keys);
  const double floor =
      o.train_batches >= kFullBatches ? kAucFloorFull : kAucFloorShort;
  rep->AddCheck("auc_floor", r1.final_metric >= floor,
                Fmt("auc %.4f", r1.final_metric) + Fmt(" >= %.2f", floor));
  rep->AddCheck("no_failed_keys", failed == 0,
                std::to_string(failed) + " of " + std::to_string(keys));

  if (!flags.trace) return;
  // The traced half starts from a fresh table: Train() replays the same
  // sample streams, which the first half left cached.
  st.reset();
  std::filesystem::remove_all(flags.data_dir + "/stack");
  st = std::make_unique<Stack>();
  std::filesystem::create_directories(flags.data_dir + "/traced");
  make(flags.data_dir + "/traced", st.get());
  const Snapshot before = Take(*st);
  const TrainResult r2 = train(2, batches / 2);
  const Snapshot after = Take(*st);
  uint64_t keys2 = 0, failed2 = 0;
  Tally(&caller_stats, 2, &keys2, &failed2);
  rep->attempted += keys2;
  rep->failed += failed2;

  rep->Add("train.emb_s", r2.embedding_seconds, "s", r2.samples);
  rep->Add("train.fwd_s", r2.forward_seconds, "s", r2.samples);
  rep->Add("train.bwd_s", r2.backward_seconds, "s", r2.samples);
  rep->Add("train.busy_aborts", static_cast<double>(r2.busy_aborts), "count",
           r2.samples);
  rep->Add("train.samples_per_s", r2.throughput(), "1/s", r2.samples);
  rep->Add("train.auc", r2.final_metric, "auc", o.eval_samples);
  AddBackendLayer(&caller_stats, rep);
  AddStorageLayers(before, after, ReadKeys(&caller_stats, 2), r2.samples, rep);

  const std::vector<Span> spans = CollectSpans();
  WriteSpans(flags.spans_out, spans);
  // Worker time not covered by a backend call nor by the trainer's own
  // forward/backward timers (dedup, batch assembly, evaluation).
  uint64_t backend_ns = 0;
  for (const Span& s : spans) backend_ns += s.end_ns - s.start_ns;
  const double worker_s = r2.seconds * kCallers;
  const double unattributed = worker_s - Seconds(backend_ns) -
                              r2.forward_seconds - r2.backward_seconds;
  rep->Add("obs.trace_overhead",
           r2.throughput() > 0 ? r1.throughput() / r2.throughput() - 1 : 0,
           "ratio", 2);
  rep->Add("obs.unattributed_share",
           worker_s > 0 ? std::max(0.0, unattributed) / worker_s : 0, "ratio",
           spans.size());
  rep->Add("obs.spans_dropped", static_cast<double>(g_spans_dropped.load()),
           "count", spans.size());
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

// Per-layer metrics a workload has no layer for (no trainer on kv-mem, no
// server on train-ooc) read 0, so every traced run reports the same names.
void FillAbsentLayers(Report* rep) {
  static const std::pair<const char*, const char*> kOptional[] = {
      {"train.emb_s", "s"},           {"train.fwd_s", "s"},
      {"train.bwd_s", "s"},           {"train.busy_aborts", "count"},
      {"train.samples_per_s", "1/s"}, {"train.auc", "auc"},
      {"serve.hit_ratio", "ratio"},   {"serve.cache_hit_ratio_registry", "ratio"},
      {"serve.evictions", "count"},   {"serve.invalidations", "count"},
      {"serve.self_us", "us"},        {"net.stage.decode_s", "s"},
      {"net.stage.queue_wait_s", "s"}, {"net.stage.execute_s", "s"},
      {"net.stage.send_s", "s"},      {"net.requests_per_call", "ratio"},
      {"net.wire_us", "us"},          {"net.rpc_retries", "count"},
      {"cluster.subbatches_per_call", "ratio"},
      {"cluster.endpoint_skew", "ratio"},
      {"cluster.self_us", "us"},      {"cluster.wrong_partition_keys", "count"}};
  for (const auto& [name, unit] : kOptional) {
    const bool present =
        std::any_of(rep->metrics.begin(), rep->metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!present) rep->Add(name, 0, unit, 0);
  }
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Print(const Flags& flags, const Report& rep, bool io_uring) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d,\n",
              Json(flags.workload).c_str(),
              static_cast<unsigned long long>(flags.seed), flags.trace);
  std::printf(
      " \"provenance\": {\"nproc\": %u, \"kernel_tier\": %s, \"io_uring\": %s, "
      "\"sim_read_latency_us\": %llu, \"sim_read_gbps\": 1.0, "
      "\"sim_write_gbps\": 1.0, \"timer_slack_ns\": 1, \"seed\": %llu},\n",
      std::thread::hardware_concurrency(),
      Json(simd::KernelTierName(simd::ActiveKernelTier())).c_str(),
      io_uring ? "true" : "false",
      static_cast<unsigned long long>(flags.read_latency_us),
      static_cast<unsigned long long>(flags.seed));
  std::printf(" \"attempted\": %llu, \"failed\": %llu,\n \"checks\": [",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < rep.checks.size(); ++i) {
    const Check& c = rep.checks[i];
    std::printf("%s\n  {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                i ? "," : "", Json(c.name).c_str(), c.ok ? "true" : "false",
                Json(c.detail).c_str());
  }
  std::printf("],\n \"slices\": %s,\n \"metrics\": {", rep.slices.c_str());
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\n  %s: {\"value\": %.9g, \"unit\": %s, \"n\": %llu}",
                i ? "," : "", Json(m.name).c_str(), m.value,
                Json(m.unit).c_str(), static_cast<unsigned long long>(m.n));
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  // The default 50 us timer slack would stretch every simulated 30 us device
  // read to ~80 us; threads inherit the slack from here.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Simulated NVMe for every device any workload opens: a fixed random
  // read latency plus 1 GB/s read and write bandwidth.
  FileDevice::SetGlobalSimulatedCosts(flags.read_latency_us, 1.0, 1.0);
  bool io_uring = false;
  {
    AsyncIoEngine probe;
    io_uring = probe.using_io_uring();
  }
  std::filesystem::create_directories(flags.data_dir);
  Report rep;
  if (flags.workload == "train-ooc") {
    RunTrain(flags, &rep);
  } else {
    RunKv(flags, flags.workload == "serve-zipf", &rep);
  }
  rep.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (flags.trace) FillAbsentLayers(&rep);
  Print(flags, rep, io_uring);
  return 0;
}

}  // namespace
}  // namespace mlkv::perf

int main(int argc, char** argv) { return mlkv::perf::Main(argc, argv); }
