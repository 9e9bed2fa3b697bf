// Observability tests: the metrics registry (cells, labeled families,
// collectors, the enable switch, Prometheus exposition incl. escaping and
// histogram buckets), the embedded /metrics HTTP endpoint, request-trace
// span trees (nesting, cross-thread propagation), and the KvServer
// integration — stats()-as-registry-view, the slow-request log naming its
// stages (including the io_wave stage of a deliberately slowed cold read),
// and request-id stitching across a cluster hop. Everything runs over
// in-process loopback sockets.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "io/file_device.h"
#include "io/temp_dir.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/trace.h"

namespace mlkv {
namespace obs {
namespace {

bool Contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// --- registry cells ------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramCells) {
  MetricsRegistry reg;
  Counter* c = reg.CounterFamily("c_total", "C.")->GetCounter();
  ASSERT_NE(c, nullptr);
  c->Add();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);

  Gauge* g = reg.GaugeFamily("g", "G.")->GetGauge();
  ASSERT_NE(g, nullptr);
  g->Set(2.5);
  g->Add(1.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.5);

  HistogramCell* h = reg.HistogramFamily("h_seconds", "H.")->GetHistogram();
  ASSERT_NE(h, nullptr);
  h->Observe(100);
  EXPECT_EQ(h->histogram().count(), 1u);
  EXPECT_EQ(reg.FamilyCount(), 3u);
}

TEST(MetricsRegistryTest, CellPointersAreStable) {
  MetricsRegistry reg;
  MetricFamily* fam = reg.CounterFamily("ops_total", "Ops.", {"op"});
  Counter* first = fam->GetCounter({"read"});
  first->Add(7);
  EXPECT_EQ(fam->GetCounter({"read"}), first);
  EXPECT_EQ(reg.CounterFamily("ops_total", "Ops.", {"op"}), fam);
  EXPECT_EQ(fam->GetCounter({"read"})->value(), 7u);
}

TEST(MetricsRegistryTest, WrongKindOrArityLookupReturnsNull) {
  MetricsRegistry reg;
  MetricFamily* fam = reg.CounterFamily("c_total", "C.", {"k"});
  EXPECT_EQ(fam->GetGauge({"v"}), nullptr);
  EXPECT_EQ(fam->GetHistogram({"v"}), nullptr);
  EXPECT_EQ(fam->GetCounter(), nullptr);           // arity mismatch
  EXPECT_EQ(fam->GetCounter({"a", "b"}), nullptr);  // arity mismatch
}

TEST(MetricsRegistryTest, DisableFreezesRecordPaths) {
  MetricsRegistry reg;
  Counter* c = reg.CounterFamily("c_total", "C.")->GetCounter();
  Gauge* g = reg.GaugeFamily("g", "G.")->GetGauge();
  HistogramCell* h = reg.HistogramFamily("h_seconds", "H.")->GetHistogram();
  c->Add();
  g->Set(1.0);
  h->Observe(10);
  SetMetricsEnabled(false);
  c->Add(100);
  g->Set(9.0);
  h->Observe(10);
  SetMetricsEnabled(true);
  EXPECT_EQ(c->value(), 1u);
  EXPECT_DOUBLE_EQ(g->value(), 1.0);
  EXPECT_EQ(h->histogram().count(), 1u);
}

TEST(MetricsRegistryTest, EwmaSeedsConvergesAndFreezes) {
  Ewma e;  // default alpha 0.125
  e.Observe(100.0);
  EXPECT_DOUBLE_EQ(e.value(), 100.0);  // first sample seeds, no decay from 0
  for (int i = 0; i < 100; ++i) e.Observe(200.0);
  EXPECT_GT(e.value(), 190.0);
  EXPECT_LE(e.value(), 200.0);
  EXPECT_EQ(e.count(), 101u);
  SetMetricsEnabled(false);
  e.Observe(100000.0);
  SetMetricsEnabled(true);
  EXPECT_LE(e.value(), 200.0);
}

TEST(MetricsValidationTest, NamesAndLabelKeys) {
  EXPECT_TRUE(ValidMetricName("mlkv_ops_total"));
  EXPECT_TRUE(ValidMetricName("a:b_c9"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("9leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_TRUE(ValidLabelKey("shard"));
  EXPECT_FALSE(ValidLabelKey("with:colon"));  // colons are name-only
  EXPECT_FALSE(ValidLabelKey(""));
}

// --- exposition ----------------------------------------------------------

TEST(ExpositionTest, GoldenUnlabeledCounterAndGauge) {
  MetricsRegistry reg;
  reg.CounterFamily("b_total", "Things.")->GetCounter()->Add(3);
  reg.GaugeFamily("a_gauge", "Level.")->GetGauge()->Set(1.5);
  // Families in name order, one HELP/TYPE header each.
  EXPECT_EQ(reg.ExpositionText(),
            "# HELP a_gauge Level.\n"
            "# TYPE a_gauge gauge\n"
            "a_gauge 1.5\n"
            "# HELP b_total Things.\n"
            "# TYPE b_total counter\n"
            "b_total 3\n");
}

TEST(ExpositionTest, LabeledSamplesOrderedByLabelTuple) {
  MetricsRegistry reg;
  MetricFamily* fam = reg.CounterFamily("ops_total", "Ops.", {"shard", "op"});
  fam->GetCounter({"1", "read"})->Add(2);
  fam->GetCounter({"0", "write"})->Add(1);
  const std::string text = reg.ExpositionText();
  const size_t w = text.find("ops_total{shard=\"0\",op=\"write\"} 1");
  const size_t r = text.find("ops_total{shard=\"1\",op=\"read\"} 2");
  ASSERT_NE(w, std::string::npos);
  ASSERT_NE(r, std::string::npos);
  EXPECT_LT(w, r);  // deterministic: ordered by label tuple, not creation
}

TEST(ExpositionTest, EscapesHelpAndLabelValues) {
  MetricsRegistry reg;
  MetricFamily* fam =
      reg.CounterFamily("esc_total", "line1\nline2 back\\slash", {"path"});
  fam->GetCounter({"a\"b\\c\nd"})->Add(1);
  const std::string text = reg.ExpositionText();
  EXPECT_TRUE(Contains(text, "# HELP esc_total line1\\nline2 back\\\\slash"));
  EXPECT_TRUE(Contains(text, "esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
}

TEST(ExpositionTest, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  HistogramSpec spec;
  spec.scale = 1.0;  // record and expose the same unit
  spec.bounds = {10.0, 100.0};
  HistogramCell* h =
      reg.HistogramFamily("lat", "Latency.", {}, spec)->GetHistogram();
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  const std::string text = reg.ExpositionText();
  EXPECT_TRUE(Contains(text, "# TYPE lat histogram"));
  EXPECT_TRUE(Contains(text, "lat_bucket{le=\"10\"} 1"));
  EXPECT_TRUE(Contains(text, "lat_bucket{le=\"100\"} 2"));
  EXPECT_TRUE(Contains(text, "lat_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(Contains(text, "lat_count 3"));
  EXPECT_TRUE(Contains(text, "lat_sum 555"));
}

TEST(ExpositionTest, CollectorSamplesMergeUnderNativeFamily) {
  MetricsRegistry reg;
  reg.CounterFamily("foo_total", "Foo.")->GetCounter()->Add(1);
  const uint64_t id = reg.AddCollector([](MetricsSink* sink) {
    sink->AddCounter("foo_total", "Foo.", 9, {{"src", "pull"}});
    sink->AddCounter("zz_only_total", "Collector-only.", 4);
  });
  std::string text = reg.ExpositionText();
  // One header for the shared family, both samples under it.
  size_t first = text.find("# TYPE foo_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE foo_total counter", first + 1),
            std::string::npos);
  EXPECT_TRUE(Contains(text, "foo_total 1"));
  EXPECT_TRUE(Contains(text, "foo_total{src=\"pull\"} 9"));
  // Collector-only family appended with its own header.
  EXPECT_TRUE(Contains(text, "# HELP zz_only_total Collector-only."));
  EXPECT_TRUE(Contains(text, "zz_only_total 4"));

  reg.RemoveCollector(id);
  text = reg.ExpositionText();
  EXPECT_FALSE(Contains(text, "zz_only_total"));
  EXPECT_TRUE(Contains(text, "foo_total 1"));
}

TEST(ExpositionTest, CollectorHistogramIsSnapshotAtCollectTime) {
  MetricsRegistry reg;
  Histogram h;
  h.Record(50);    // 50 us
  h.Record(2000);  // 2 ms
  const uint64_t id = reg.AddCollector([&h](MetricsSink* sink) {
    sink->AddHistogram("qw_seconds", "Queue wait.", h);
  });
  const std::string text = reg.ExpositionText();
  EXPECT_TRUE(Contains(text, "# TYPE qw_seconds histogram"));
  EXPECT_TRUE(Contains(text, "qw_seconds_bucket{le=\"0.0001\"} 1"));
  EXPECT_TRUE(Contains(text, "qw_seconds_bucket{le=\"0.0025\"} 2"));
  EXPECT_TRUE(Contains(text, "qw_seconds_bucket{le=\"+Inf\"} 2"));
  EXPECT_TRUE(Contains(text, "qw_seconds_sum 0.00205"));
  EXPECT_TRUE(Contains(text, "qw_seconds_count 2"));
  reg.RemoveCollector(id);
}

// --- /metrics endpoint ---------------------------------------------------

TEST(MetricsHttpTest, ServesExpositionAnd404) {
  MetricsRegistry reg;
  reg.CounterFamily("http_total", "Hits.")->GetCounter()->Add(2);
  MetricsHttpServer http(&reg);
  ASSERT_TRUE(http.Start("127.0.0.1:0").ok());
  ASSERT_NE(http.port(), 0);
  const std::string addr = "127.0.0.1:" + std::to_string(http.port());

  std::string body;
  ASSERT_TRUE(HttpGet(addr, "/metrics", &body).ok());
  EXPECT_TRUE(Contains(body, "http_total 2"));

  std::string none;
  const Status s = HttpGet(addr, "/nope", &none);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(Contains(s.ToString(), "404"));
  http.Stop();
}

// --- trace spans ---------------------------------------------------------

TEST(TraceTest, NestedSpansRenderAsTree) {
  RequestTrace trace("MultiGet", 42);
  {
    ScopedTraceContext ctx({&trace, RequestTrace::kNoParent});
    ScopedSpan outer("decode");
    { ScopedSpan inner("execute", "keys=3"); }
  }
  trace.Finish();
  EXPECT_EQ(trace.op(), std::string("MultiGet"));
  EXPECT_EQ(trace.request_id(), 42u);
  size_t spans = 0;
  uint32_t execute_parent = RequestTrace::kNoParent;
  trace.ForEachSpan([&](const TraceSpan& s) {
    if (std::string(s.stage) == "execute") execute_parent = s.parent;
    ++spans;
  });
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(execute_parent, 0u);  // nested under decode (span 0)
  const std::string render = trace.Render();
  EXPECT_TRUE(Contains(render, "decode"));
  EXPECT_TRUE(Contains(render, "  execute"));  // indented child
  EXPECT_TRUE(Contains(render, "[keys=3]"));
}

TEST(TraceTest, ScopedSpanWithoutTraceIsNoop) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  ScopedSpan span("orphan");  // must not crash or install anything
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceTest, ContextPropagatesAcrossThreads) {
  RequestTrace trace("MultiPut", 7);
  {
    ScopedTraceContext ctx({&trace, RequestTrace::kNoParent});
    ScopedSpan scatter("scatter");
    const TraceContext snap = CurrentTraceContext();
    std::thread worker([snap]() {
      ScopedTraceContext remote(snap);
      ScopedSpan span("shard_execute");
    });
    worker.join();
  }
  bool found = false;
  uint32_t parent = RequestTrace::kNoParent;
  trace.ForEachSpan([&](const TraceSpan& s) {
    if (std::string(s.stage) == "shard_execute") {
      found = true;
      parent = s.parent;
    }
  });
  ASSERT_TRUE(found);
  EXPECT_EQ(parent, 0u);  // child of the scatter span, across the thread
}

TEST(TraceTest, AddSpanRecordsPostHocInterval) {
  RequestTrace trace("MultiGet", 1);
  trace.AddSpan("queue_wait", "", RequestTrace::kNoParent,
                trace.start_us(), 1234);
  bool found = false;
  trace.ForEachSpan([&](const TraceSpan& s) {
    if (std::string(s.stage) == "queue_wait" && s.dur_us == 1234) found = true;
  });
  EXPECT_TRUE(found);
}

// --- KvServer integration ------------------------------------------------

std::unique_ptr<KvBackend> MakeInMemory(uint32_t dim = 8) {
  BackendConfig cfg;
  cfg.dim = dim;
  cfg.dir = "/tmp/mlkv-obs-test-inmem";
  std::unique_ptr<KvBackend> b;
  if (!MakeBackend(BackendKind::kInMemory, cfg, &b).ok()) return nullptr;
  return b;
}

TEST(KvServerObsTest, StatsSnapshotIsViewOverRegistry) {
  net::KvServer server(MakeInMemory());
  ASSERT_TRUE(server.Start().ok());

  net::RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(net::RemoteBackend::Connect(o, &remote).ok());
  const Key key = 9;
  std::vector<float> row(8, 1.0f);
  ASSERT_TRUE(remote->MultiPut({&key, 1}, row.data()).AllOk());
  std::vector<float> out(8, 0.0f);
  ASSERT_TRUE(
      remote->MultiGet({&key, 1}, out.data(), MultiGetOptions()).AllOk());

  const net::StatsSnapshot st = server.stats();
  EXPECT_EQ(st.op_counts[static_cast<uint8_t>(net::Opcode::kMultiGet)], 1u);
  EXPECT_EQ(st.op_counts[static_cast<uint8_t>(net::Opcode::kMultiPut)], 1u);
  EXPECT_GE(st.requests, 2u);
  EXPECT_EQ(st.connections, 1u);

  // The same numbers come out of the registry — snapshot and scrape can
  // never disagree.
  const std::string text = server.metrics()->ExpositionText();
  EXPECT_TRUE(Contains(
      text, "mlkv_server_requests_total{op=\"MultiGet\"} 1"));
  EXPECT_TRUE(Contains(
      text, "mlkv_server_requests_total{op=\"MultiPut\"} 1"));
  EXPECT_TRUE(Contains(text, "mlkv_server_connections_total 1"));
  // Base backend families ride along (InMemory has no sharded-store or
  // disk counters to report beyond these).
  EXPECT_TRUE(Contains(text, "mlkv_io_disk_record_reads_total"));
  EXPECT_TRUE(Contains(text, "mlkv_request_stage_seconds_bucket"));
  server.Stop();
}

// An MLKV backend exports its engine's queue-wait histogram and the
// lookahead drop counter; a cold read records one wait per device read.
TEST(KvServerObsTest, MlkvScrapeHasQueueWaitAndLookaheadDrops) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = 8;
  cfg.buffer_bytes = 1u << 16;
  cfg.index_slots = 4096;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &backend).ok());
  constexpr size_t kN = 4000;
  std::vector<Key> keys(kN);
  std::vector<float> rows(kN * 8, 1.0f);
  for (size_t i = 0; i < kN; ++i) keys[i] = i;
  ASSERT_TRUE(backend->MultiPut(keys, rows.data()).AllOk());
  std::vector<float> out(64 * 8);
  MultiGetOptions untracked;
  untracked.untracked = true;
  ASSERT_TRUE(backend
                  ->MultiGet(std::span<const Key>(keys).first(64), out.data(),
                             untracked)
                  .AllOk());
  net::KvServer server(std::move(backend));
  const std::string text = server.metrics()->ExpositionText();
  EXPECT_TRUE(Contains(text, "# TYPE mlkv_io_queue_wait_seconds histogram"));
  EXPECT_TRUE(Contains(text, "mlkv_io_queue_wait_seconds_count "));
  EXPECT_FALSE(Contains(text, "mlkv_io_queue_wait_seconds_count 0\n"));
  EXPECT_TRUE(Contains(text, "mlkv_lookahead_dropped_total 0"));
}

// Both hybrid-log backends export the pending-read chain-hop counter.
TEST(KvServerObsTest, StoreScrapeHasReadHops) {
  for (const BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster}) {
    TempDir dir;
    BackendConfig cfg;
    cfg.dir = dir.File("b");
    cfg.dim = 8;
    cfg.buffer_bytes = 1u << 16;
    cfg.index_slots = 4096;
    std::unique_ptr<KvBackend> backend;
    ASSERT_TRUE(MakeBackend(kind, cfg, &backend).ok());
    constexpr size_t kN = 4000;
    std::vector<Key> keys(kN);
    std::vector<float> rows(kN * 8, 1.0f);
    for (size_t i = 0; i < kN; ++i) keys[i] = i;
    ASSERT_TRUE(backend->MultiPut(keys, rows.data()).AllOk());
    std::vector<float> out(64 * 8);
    MultiGetOptions untracked;
    untracked.untracked = true;
    ASSERT_TRUE(backend
                    ->MultiGet(std::span<const Key>(keys).first(64),
                               out.data(), untracked)
                    .AllOk());
    net::KvServer server(std::move(backend));
    const std::string text = server.metrics()->ExpositionText();
    EXPECT_TRUE(Contains(text, "# TYPE mlkv_store_read_hops_total counter"))
        << BackendKindName(kind);
    EXPECT_TRUE(Contains(text, "\nmlkv_store_read_hops_total "))
        << BackendKindName(kind);
  }
}

TEST(KvServerObsTest, TwoServersKeepSeparateRegistries) {
  net::KvServer a(MakeInMemory());
  net::KvServer b(MakeInMemory());
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  net::RemoteBackendOptions o;
  o.addr = a.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(net::RemoteBackend::Connect(o, &remote).ok());
  EXPECT_NE(a.metrics(), b.metrics());
  EXPECT_EQ(b.stats().connections, 0u);
  EXPECT_EQ(a.stats().connections, 1u);
  a.Stop();
  b.Stop();
}

TEST(KvServerObsTest, SlowRequestLogNamesStages) {
  std::mutex mu;
  std::vector<std::string> logs;
  net::KvServerOptions opts;
  opts.slow_request_us = 1;  // every traced request is "slow"
  opts.slow_request_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    logs.push_back(line);
  };
  net::KvServer server(MakeInMemory(), opts);
  ASSERT_TRUE(server.Start().ok());

  net::RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(net::RemoteBackend::Connect(o, &remote).ok());
  const Key key = 3;
  std::vector<float> row(8, 2.0f);
  ASSERT_TRUE(remote->MultiPut({&key, 1}, row.data()).AllOk());
  server.Stop();

  std::lock_guard<std::mutex> lk(mu);
  bool found = false;
  for (const std::string& line : logs) {
    if (!Contains(line, "op=MultiPut")) continue;
    found = true;
    EXPECT_TRUE(Contains(line, "slow request"));
    EXPECT_TRUE(Contains(line, "threshold=1us"));
    EXPECT_TRUE(Contains(line, "decode"));
    EXPECT_TRUE(Contains(line, "execute"));
  }
  EXPECT_TRUE(found);
}

TEST(KvServerObsTest, SlowColdReadNamesIoWaveStage) {
  // A FASTER backend with a tiny buffer and a simulated 1 ms device read
  // latency: a cold MultiGet's pending-read wave dominates the request, and
  // the slow-request log must name the io_wave stage.
  FileDevice::SetGlobalSimulatedCosts(1000, 0, 0);
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = 8;
  cfg.buffer_bytes = 1u << 16;
  cfg.index_slots = 4096;
  cfg.io_threads = 2;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &backend).ok());

  std::mutex mu;
  std::vector<std::string> logs;
  net::KvServerOptions opts;
  opts.slow_request_us = 500;
  opts.slow_request_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    logs.push_back(line);
  };
  net::KvServer server(std::move(backend), opts);
  ASSERT_TRUE(server.Start().ok());

  net::RemoteBackendOptions o;
  o.addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(net::RemoteBackend::Connect(o, &remote).ok());
  constexpr size_t kN = 2000;
  std::vector<Key> keys(kN);
  std::vector<float> rows(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i;
    for (int d = 0; d < 8; ++d) rows[i * 8 + d] = static_cast<float>(i);
  }
  ASSERT_TRUE(remote->MultiPut(keys, rows.data()).AllOk());
  // Early keys were evicted from the 64 KB buffer: this read goes cold.
  std::vector<float> out(64 * 8, 0.0f);
  ASSERT_TRUE(remote
                  ->MultiGet(std::span<const Key>(keys).first(64), out.data(),
                             MultiGetOptions())
                  .AllOk());
  server.Stop();
  FileDevice::SetGlobalSimulatedCosts(0, 0, 0);

  std::lock_guard<std::mutex> lk(mu);
  bool found = false;
  for (const std::string& line : logs) {
    if (Contains(line, "op=MultiGet") && Contains(line, "io_wave")) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KvServerObsTest, ClusterHopStitchesRequestIds) {
  // outer server's backend is a RemoteBackend to the inner server: the
  // traced request's id must ride the nested RPC, so both servers' slow
  // logs name the same request.
  std::mutex mu;
  std::vector<std::string> inner_logs, outer_logs;

  net::KvServerOptions inner_opts;
  inner_opts.slow_request_us = 1;
  inner_opts.slow_request_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    inner_logs.push_back(line);
  };
  net::KvServer inner(MakeInMemory(), inner_opts);
  ASSERT_TRUE(inner.Start().ok());

  net::RemoteBackendOptions ro;
  ro.addr = inner.addr();
  std::unique_ptr<KvBackend> hop;
  ASSERT_TRUE(net::RemoteBackend::Connect(ro, &hop).ok());

  net::KvServerOptions outer_opts;
  outer_opts.slow_request_us = 1;
  outer_opts.slow_request_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lk(mu);
    outer_logs.push_back(line);
  };
  net::KvServer outer(std::move(hop), outer_opts);
  ASSERT_TRUE(outer.Start().ok());

  net::RemoteBackendOptions co;
  co.addr = outer.addr();
  std::unique_ptr<KvBackend> client;
  ASSERT_TRUE(net::RemoteBackend::Connect(co, &client).ok());
  const Key key = 5;
  std::vector<float> row(8, 3.0f);
  ASSERT_TRUE(client->MultiPut({&key, 1}, row.data()).AllOk());
  outer.Stop();
  inner.Stop();

  std::lock_guard<std::mutex> lk(mu);
  std::string outer_id;
  for (const std::string& line : outer_logs) {
    if (!Contains(line, "op=MultiPut")) continue;
    EXPECT_TRUE(Contains(line, "rpc"));  // the hop shows as a client span
    const size_t at = line.find("id=");
    ASSERT_NE(at, std::string::npos);
    outer_id = line.substr(at, line.find(' ', at) - at);
  }
  ASSERT_FALSE(outer_id.empty());
  bool stitched = false;
  for (const std::string& line : inner_logs) {
    if (Contains(line, "op=MultiPut") && Contains(line, outer_id + " ")) {
      stitched = true;
    }
  }
  EXPECT_TRUE(stitched);
}

// --- caching backend -----------------------------------------------------

TEST(CachingBackendTest, HitsMissesAndWriteInvalidation) {
  std::unique_ptr<KvBackend> cached;
  ASSERT_TRUE(
      MakeCachingBackend(MakeInMemory(), /*capacity=*/256, &cached).ok());
  EXPECT_EQ(cached->name(), "Cached(InMemory)");

  const Key key = 11;
  std::vector<float> row(8, 4.0f);
  ASSERT_TRUE(cached->MultiPut({&key, 1}, row.data()).AllOk());

  MultiGetOptions untracked;
  untracked.untracked = true;
  std::vector<float> out(8, 0.0f);
  ASSERT_TRUE(cached->MultiGet({&key, 1}, out.data(), untracked).AllOk());
  EXPECT_EQ(out, row);  // miss: served by the inner store, fills the cache
  std::fill(out.begin(), out.end(), 0.0f);
  ASSERT_TRUE(cached->MultiGet({&key, 1}, out.data(), untracked).AllOk());
  EXPECT_EQ(out, row);  // hit: served by the cache

  auto count = [&](const std::string& name) {
    MetricsSink sink;
    cached->CollectMetrics(&sink);
    return static_cast<uint64_t>(sink.Sum(name));
  };
  EXPECT_EQ(count("mlkv_cache_hits_total"), 1u);
  EXPECT_EQ(count("mlkv_cache_misses_total"), 1u);

  // A write invalidates: the next read misses and sees the new value.
  std::vector<float> updated(8, 5.0f);
  ASSERT_TRUE(cached->MultiPut({&key, 1}, updated.data()).AllOk());
  ASSERT_TRUE(cached->MultiGet({&key, 1}, out.data(), untracked).AllOk());
  EXPECT_EQ(out, updated);
  EXPECT_EQ(count("mlkv_cache_misses_total"), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace mlkv
