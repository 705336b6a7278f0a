// The CellStore seam and the serve layer on top of it: cache-key
// fingerprints, the cell codec, cold-vs-warm byte identity through
// run_campaign()/run_fuzz(), DiskStore pathologies (corruption, eviction,
// engine-version invalidation), the michican.serve.v1 wire protocol, and an
// in-process daemon end-to-end over a real Unix socket.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "analysis/scenarios.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/cell_store.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"
#include "serve/client.hpp"
#include "serve/disk_store.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace {

using namespace mcan;
namespace fs = std::filesystem;

analysis::ExperimentSpec small_spec() {
  auto spec = analysis::ScenarioRegistry::built_in().make("4");
  spec.duration = sim::Millis{200};
  return spec;
}

runner::CampaignConfig small_campaign(runner::CellStore* cells = nullptr) {
  runner::CampaignConfig cfg;
  cfg.specs = {small_spec()};
  cfg.seeds = {0, 3};
  cfg.jobs = 2;
  cfg.cells = cells;
  return cfg;
}

/// Unique scratch directory under the system temp dir (socket paths must
/// stay under the ~108-char sun_path limit, so never use the build tree).
fs::path scratch_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("michican_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- keys --

TEST(CellKey, FingerprintIsStableAcrossCalls) {
  const auto a = runner::spec_fingerprint(small_spec());
  const auto b = runner::spec_fingerprint(small_spec());
  EXPECT_EQ(a, b);
}

TEST(CellKey, FingerprintExcludesSeedAndEngineToggles) {
  auto spec = small_spec();
  const auto base = runner::spec_fingerprint(spec);
  spec.seed = 12345;  // keyed separately as the derived seed
  EXPECT_EQ(base, runner::spec_fingerprint(spec));
  spec.fast_path = !spec.fast_path;  // equivalence-gated: same result
  spec.capture_timeline = true;
  EXPECT_EQ(base, runner::spec_fingerprint(spec));
}

TEST(CellKey, FingerprintSeesSemanticFields) {
  auto spec = small_spec();
  const auto base = runner::spec_fingerprint(spec);
  spec.duration = sim::Millis{spec.duration.value() + 1};
  const auto longer = runner::spec_fingerprint(spec);
  EXPECT_NE(base, longer);
  spec = small_spec();
  spec.defense_enabled = !spec.defense_enabled;
  EXPECT_NE(base, runner::spec_fingerprint(spec));
  spec = small_spec();
  spec.fault.bit_error_rate = 1e-4;
  EXPECT_NE(base, runner::spec_fingerprint(spec));
}

TEST(CellKey, IdEncodesEveryComponent) {
  runner::CellKey key;
  key.spec_hash = 0xABCDEF;
  key.seed = 42;
  const auto id = key.id();
  EXPECT_NE(id.find("0000000000abcdef"), std::string::npos);
  EXPECT_NE(id.find("000000000000002a"), std::string::npos);
  EXPECT_NE(id.find(runner::kEngineVersion), std::string::npos);

  auto other = key;
  other.engine = "michican-cell-v999";
  EXPECT_NE(id, other.id());
}

// --------------------------------------------------------------- codec --

TEST(CellCodec, RoundTripsARealExperimentResult) {
  auto cfg = small_campaign();
  const auto res = runner::rerun_cell(cfg, 0, 0);
  const auto bytes = runner::encode_cell(res);
  analysis::ExperimentResult decoded;
  ASSERT_TRUE(runner::decode_cell(bytes, decoded));
  // Re-encoding the decoded result must reproduce the exact bytes — the
  // codec covers every field the aggregation reads, losslessly.
  EXPECT_EQ(bytes, runner::encode_cell(decoded));
  EXPECT_EQ(res.counterattacks, decoded.counterattacks);
  EXPECT_EQ(res.defender_tec, decoded.defender_tec);
  EXPECT_EQ(res.attackers.size(), decoded.attackers.size());
}

TEST(CellCodec, RejectsTruncatedAndGarbageBytes) {
  const auto res = runner::rerun_cell(small_campaign(), 0, 0);
  const auto bytes = runner::encode_cell(res);
  analysis::ExperimentResult out;
  for (const auto cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                         bytes.size() - 1}) {
    EXPECT_FALSE(runner::decode_cell(bytes.substr(0, cut), out));
  }
  EXPECT_FALSE(runner::decode_cell("not a cell at all", out));
  EXPECT_FALSE(runner::decode_cell(bytes + "trailing", out));
}

TEST(CellCodec, RoundTripsFuzzCells) {
  runner::FuzzCellResult cell;
  cell.kind = conformance::CaseKind::Noisy;
  cell.diverged = true;
  cell.divergence = "wire bit 17 mismatch";
  cell.stats.oracle_checked = true;
  cell.stats.frames_on_wire = 3;
  cell.stats.wire_bits_compared = 321;
  const auto bytes = runner::encode_fuzz_cell(cell);
  runner::FuzzCellResult out;
  ASSERT_TRUE(runner::decode_fuzz_cell(bytes, out));
  EXPECT_EQ(out.kind, cell.kind);
  EXPECT_TRUE(out.diverged);
  EXPECT_EQ(out.divergence, cell.divergence);
  EXPECT_EQ(out.stats.wire_bits_compared, 321u);
  EXPECT_FALSE(runner::decode_fuzz_cell(bytes.substr(0, 8), out));
}

// ---------------------------------------------------- campaign caching --

TEST(CampaignCache, WarmRerunIsByteIdenticalAndAllHits) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);

  const auto cold = runner::run_campaign(cfg);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.tasks.size());

  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_hits, warm.tasks.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  for (const auto& t : warm.tasks) EXPECT_TRUE(t.cached);

  // Deterministic report section: byte-for-byte equal, tasks included.
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
}

TEST(CampaignCache, NullStoreStillComputesEverything) {
  const auto rep = runner::run_campaign(small_campaign());
  EXPECT_FALSE(rep.cache_enabled);
  EXPECT_EQ(rep.cache_hits, 0u);
  EXPECT_EQ(rep.failed_tasks(), 0u);
}

TEST(CampaignCache, EngineVersionBumpInvalidatesEveryCell) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);
  (void)runner::run_campaign(cfg);
  ASSERT_GT(store.stats().stores, 0u);

  // A changed engine string addresses a disjoint key space: every fetch of
  // the planned cells under the new version misses.
  for (const auto& cell : runner::plan_campaign(cfg)) {
    auto bumped = cell.key;
    bumped.engine = "michican-cell-v999";
    EXPECT_FALSE(store.fetch(bumped).has_value());
    EXPECT_TRUE(store.fetch(cell.key).has_value());
  }
}

TEST(CampaignCache, PresetCancelFlagSkipsEveryCell) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);
  std::atomic<bool> cancel{true};
  cfg.cancel = &cancel;
  const auto rep = runner::run_campaign(cfg);
  EXPECT_EQ(rep.cells_cancelled, rep.tasks.size());
  EXPECT_EQ(store.stats().stores, 0u);
  for (const auto& t : rep.tasks) {
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.error, "cancelled");
  }
}

TEST(CampaignCache, DecodeCorruptEntryIsCountedAndRecomputed) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);
  const auto cold = runner::run_campaign(cfg);
  EXPECT_EQ(cold.cache_corrupt, 0u);

  // Overwrite one cached cell with bytes that hash fine at the store layer
  // but fail to decode: the runner must count it corrupt, recompute, and
  // still land on the identical report.
  const auto cells = runner::plan_campaign(cfg);
  ASSERT_FALSE(cells.empty());
  store.store(cells[0].key, "not a cell payload");

  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_corrupt, 1u);
  EXPECT_EQ(warm.cache_misses, 1u);  // the corrupt probe is a miss
  EXPECT_EQ(warm.cache_hits, warm.tasks.size() - 1);
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
}

TEST(FuzzCache, WarmRerunIsByteIdenticalAndAllHits) {
  runner::MemoryStore store;
  runner::FuzzConfig cfg;
  cfg.cases = 24;
  cfg.seeds = {0, 4};
  cfg.jobs = 2;
  cfg.cells = &store;

  const auto cold = runner::run_fuzz(cfg);
  EXPECT_EQ(cold.cache_misses, 24u);
  const auto warm = runner::run_fuzz(cfg);
  EXPECT_EQ(warm.cache_hits, 24u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(runner::to_json(cold, {}), runner::to_json(warm, {}));
}

// ----------------------------------------------------------- DiskStore --

TEST(DiskStore, PersistsAcrossInstances) {
  const auto dir = scratch_dir("persist");
  runner::CellKey key;
  key.spec_hash = 7;
  key.seed = 9;
  {
    serve::DiskStore store{dir};
    store.store(key, "hello cell");
    EXPECT_EQ(store.fetch(key).value_or(""), "hello cell");
  }
  serve::DiskStore reopened{dir};
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.fetch(key).value_or(""), "hello cell");
  fs::remove_all(dir);
}

TEST(DiskStore, TruncatedEntryIsCorruptNotFatal) {
  const auto dir = scratch_dir("trunc");
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.spec_hash = 1;
  store.store(key, std::string(256, 'x'));

  // Truncate the entry file mid-payload: the stored hash can no longer
  // verify, so the fetch must report a miss and discard the entry.
  const auto file = dir / (key.id() + ".cell");
  ASSERT_TRUE(fs::exists(file));
  fs::resize_file(file, fs::file_size(file) / 2);

  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(file));

  // Recompute-and-restore works after the discard.
  store.store(key, std::string(256, 'x'));
  EXPECT_TRUE(store.fetch(key).has_value());
  fs::remove_all(dir);
}

TEST(DiskStore, FlippedPayloadByteIsCorruptNotFatal) {
  const auto dir = scratch_dir("fliprot");
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.spec_hash = 2;
  store.store(key, "payload-that-will-rot");

  const auto file = dir / (key.id() + ".cell");
  {
    std::fstream f{file, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(-3, std::ios::end);
    f.put('!');
  }
  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  fs::remove_all(dir);
}

TEST(DiskStore, EvictsLeastRecentlyUsedUnderTinyCap) {
  const auto dir = scratch_dir("evict");
  serve::DiskStore store{dir, 250};  // fits two 100-byte payloads, not three
  runner::CellKey a, b, c;
  a.seed = 1;
  b.seed = 2;
  c.seed = 3;
  store.store(a, std::string(100, 'a'));
  store.store(b, std::string(100, 'b'));
  EXPECT_TRUE(store.fetch(a).has_value());  // refresh a: b is now LRU
  store.store(c, std::string(100, 'c'));

  EXPECT_TRUE(store.fetch(a).has_value());
  EXPECT_FALSE(store.fetch(b).has_value());  // evicted
  EXPECT_TRUE(store.fetch(c).has_value());
  const auto s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 250u);
  fs::remove_all(dir);
}

TEST(DiskStore, NeverEvictsTheEntryJustStored) {
  const auto dir = scratch_dir("keepnew");
  serve::DiskStore store{dir, 10};  // smaller than any single entry
  runner::CellKey a, b;
  a.seed = 1;
  b.seed = 2;
  store.store(a, std::string(64, 'a'));
  store.store(b, std::string(64, 'b'));
  EXPECT_FALSE(store.fetch(a).has_value());
  EXPECT_TRUE(store.fetch(b).has_value());  // over cap, but kept
  fs::remove_all(dir);
}

TEST(DiskStore, StartupSweepDropsAndCountsTornShortFiles) {
  const auto dir = scratch_dir("sweep");
  {
    serve::DiskStore store{dir};
    runner::CellKey key;
    key.spec_hash = 5;
    store.store(key, "survives the restart");
  }
  // A file too short to hold even a header is a torn write from a crash.
  const auto torn = dir / "torn-entry.cell";
  std::ofstream{torn, std::ios::binary} << "MCST";

  serve::DiskStore reopened{dir};
  const auto s = reopened.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.entries, 1u);  // only the valid entry was indexed
  EXPECT_FALSE(fs::exists(torn));
  fs::remove_all(dir);
}

TEST(DiskStore, DrivesAWarmCampaignLikeMemoryStore) {
  const auto dir = scratch_dir("campaign");
  serve::DiskStore store{dir};
  auto cfg = small_campaign(&store);
  const auto cold = runner::run_campaign(cfg);
  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_hits, warm.tasks.size());
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));
  fs::remove_all(dir);
}

// ------------------------------------------------------- report writes --

TEST(ReportWrite, FailurePropagatesAsFalse) {
  const auto rep = runner::run_campaign(small_campaign());
  EXPECT_FALSE(runner::write_json_file(
      "/nonexistent_michican_dir/report.json", rep));
  // A full device only fails small buffered writes at flush time — the
  // exact bug class the flush-before-check fix covers.
  if (fs::exists("/dev/full")) {
    EXPECT_FALSE(runner::write_json_file("/dev/full", rep));
  }
  const auto ok_path = scratch_dir("report") / "report.json";
  EXPECT_TRUE(runner::write_json_file(ok_path.string(), rep));
  fs::remove_all(ok_path.parent_path());
}

// ---------------------------------------------------------------- wire --

TEST(Wire, FramesRoundTripOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"op\":\"ping\"}";
  EXPECT_TRUE(serve::send_frame(fds[0], payload));
  EXPECT_TRUE(serve::send_frame(fds[0], ""));  // empty frame is legal
  EXPECT_EQ(serve::recv_frame(fds[1]).value_or("x"), payload);
  EXPECT_EQ(serve::recv_frame(fds[1]).value_or("x"), "");
  ::close(fds[0]);
  EXPECT_FALSE(serve::recv_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);
}

TEST(Wire, RejectsOversizedAndGarbageLengths) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_FALSE(
      serve::send_frame(fds[0], std::string(serve::kMaxFrame + 1, 'x')));
  // A garbage length prefix (0xFFFFFFFF) must be rejected, not allocated.
  const char bad[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  ASSERT_EQ(::send(fds[0], bad, 4, 0), 4);
  EXPECT_FALSE(serve::recv_frame(fds[1]).has_value());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, JsonParserHandlesTheProtocolShapes) {
  const auto v = serve::parse_json(
      "{\"op\":\"campaign\",\"scenarios\":[\"1\",\"exp2\"],"
      "\"seeds\":{\"begin\":0,\"end\":18446744073709551615},"
      "\"jobs\":4,\"shrink\":false,\"ratio\":-2.5e3,\"nil\":null,"
      "\"msg\":\"a\\\"b\\\\c\\n\\u0041\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("op")->get_string(), "campaign");
  EXPECT_EQ(v->find("scenarios")->array.size(), 2u);
  EXPECT_EQ(v->find("scenarios")->array[1].get_string(), "exp2");
  // Seeds survive as exact u64 even past a double's 53-bit integer range.
  EXPECT_EQ(v->find("seeds")->find("end")->get_u64(), 18446744073709551615ull);
  EXPECT_EQ(v->find("jobs")->get_u64(), 4u);
  EXPECT_FALSE(v->find("shrink")->get_bool(true));
  EXPECT_DOUBLE_EQ(v->find("ratio")->get_number(), -2500.0);
  EXPECT_EQ(v->find("nil")->kind, serve::JsonValue::Kind::Null);
  EXPECT_EQ(v->find("msg")->get_string(), "a\"b\\c\nA");
  EXPECT_EQ(v->find("absent"), nullptr);
}

TEST(Wire, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(serve::parse_json("").has_value());
  EXPECT_FALSE(serve::parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(serve::parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(serve::parse_json("{\"a\"}").has_value());
  EXPECT_FALSE(serve::parse_json("\"unterminated").has_value());
  EXPECT_FALSE(serve::parse_json("{'single':1}").has_value());
  EXPECT_FALSE(serve::parse_json("[1,2,").has_value());
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(serve::parse_json(deep).has_value());  // depth-limited
}

TEST(Wire, ExtractObjectCutsVerbatimNestedBytes) {
  const std::string doc =
      "{\"report\":\"{\\\"cache_stats\\\":{\\\"decoy\\\":1}}\","
      "\"cache_stats\":{\"store\":{\"hits\":2},\"wall_ms\":1.5},"
      "\"service\":{\"requests\":3}}";
  // Braces inside the escaped report string must not confuse the cut, and
  // the decoy key inside it must not match before the real one.
  EXPECT_EQ(serve::extract_object(doc, "cache_stats"),
            "{\"store\":{\"hits\":2},\"wall_ms\":1.5}");
  EXPECT_EQ(serve::extract_object(doc, "service"), "{\"requests\":3}");
  EXPECT_EQ(serve::extract_object(doc, "absent"), "");
  EXPECT_EQ(serve::extract_object("{\"a\":1}", "a"), "");  // not an object
  EXPECT_EQ(serve::extract_object("{\"a\":{\"unbalanced\":1}", "a"),
            "{\"unbalanced\":1}");
  EXPECT_EQ(serve::extract_object("{\"a\":{\"torn\":", "a"), "");
}

// ---------------------------------------------------------- end-to-end --

TEST(ServeEndToEnd, ColdThenWarmSubmitIsByteIdentical) {
  const auto dir = scratch_dir("e2e");
  serve::ServerConfig cfg;
  cfg.socket_path = (dir / "serve.sock").string();
  cfg.cache_dir = (dir / "cache").string();
  cfg.jobs = 2;
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  std::thread daemon{[&cfg] { EXPECT_EQ(serve::run_server(cfg), 0); }};

  const std::string request =
      "{\"schema\":\"michican.serve.v1\",\"op\":\"campaign\","
      "\"scenarios\":[\"4\"],\"seeds\":{\"begin\":0,\"end\":2},\"jobs\":2}";
  std::size_t progress_events = 0;
  const auto cold = serve::submit_request(
      cfg.socket_path, request, 5000,
      [&progress_events](std::size_t, std::size_t) { ++progress_events; });
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_FALSE(cold.report_json.empty());
  EXPECT_FALSE(cold.table.empty());
  EXPECT_EQ(progress_events, 2u);  // one per cell
  EXPECT_NE(cold.cache_stats_json.find("\"kind\":\"cache_stats\""),
            std::string::npos);
  EXPECT_NE(cold.cache_stats_json.find("\"misses\":2"), std::string::npos);

  const auto warm = serve::submit_request(cfg.socket_path, request, 1000);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.report_json, cold.report_json);  // byte-identical replay
  EXPECT_NE(warm.cache_stats_json.find("\"hits\":2"), std::string::npos);

  // The report the daemon emitted matches a local run of the same grid.
  runner::CampaignConfig local;
  local.specs = {analysis::ScenarioRegistry::built_in().make("4")};
  local.seeds = {0, 2};
  local.jobs = 2;
  EXPECT_EQ(cold.report_json, runner::to_json(runner::run_campaign(local)));

  const auto ping = serve::submit_request(
      cfg.socket_path, "{\"op\":\"ping\"}", 1000);
  EXPECT_TRUE(ping.ok) << ping.error;

  const auto bad = serve::submit_request(
      cfg.socket_path, "{\"op\":\"campaign\",\"scenarios\":[\"no-such\"]}",
      1000);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("no-such"), std::string::npos);

  const auto down = serve::submit_request(
      cfg.socket_path, "{\"op\":\"shutdown\"}", 1000);
  EXPECT_TRUE(down.ok) << down.error;
  daemon.join();
  EXPECT_FALSE(fs::exists(cfg.socket_path));  // unlinked on exit
  fs::remove_all(dir);
}

TEST(ServeEndToEnd, StatsHealthAndPromExposition) {
  const auto dir = scratch_dir("obs");
  serve::ServerConfig cfg;
  cfg.socket_path = (dir / "serve.sock").string();
  cfg.cache_dir = (dir / "cache").string();
  cfg.jobs = 2;
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  std::thread daemon{[&cfg] { EXPECT_EQ(serve::run_server(cfg), 0); }};

  const auto run = serve::submit_request(
      cfg.socket_path,
      "{\"op\":\"campaign\",\"scenarios\":[\"4\"],"
      "\"seeds\":{\"begin\":0,\"end\":2},\"jobs\":2}",
      5000);
  ASSERT_TRUE(run.ok) << run.error;

  const auto stats = serve::submit_request(
      cfg.socket_path, "{\"op\":\"stats\"}", 1000);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.exit_code, 0);
  // The service snapshot parses and reflects the campaign just served.
  const auto svc = serve::parse_json(stats.service_json);
  ASSERT_TRUE(svc.has_value()) << stats.service_json;
  EXPECT_GE(svc->find("requests")->get_u64(), 1u);
  EXPECT_GT(svc->find("uptime_ms")->get_number(), 0.0);
  ASSERT_NE(svc->find("latency_ms"), nullptr);
  EXPECT_GE(svc->find("latency_ms")->find("count")->get_u64(), 1u);
  EXPECT_NE(svc->find("queue_depth"), nullptr);
  // The metrics dump is a valid registry rendering.
  const auto met = serve::parse_json(stats.metrics_json);
  ASSERT_TRUE(met.has_value()) << stats.metrics_json;
  EXPECT_NE(met->find("histograms")->find("serve.request_ms"), nullptr);
  // Prometheus text names the request counter and the latency histogram.
  EXPECT_NE(stats.prom_text.find("# TYPE michican_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(stats.prom_text.find(
                "michican_serve_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(stats.prom_text.find("michican_cache_hits"), std::string::npos);

  const auto health = serve::submit_request(
      cfg.socket_path, "{\"op\":\"health\"}", 1000);
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.exit_code, 0);
  const auto h = serve::parse_json(health.health_json);
  ASSERT_TRUE(h.has_value()) << health.health_json;
  EXPECT_TRUE(h->find("checks")->find("cache_writable")->get_bool(false));
  EXPECT_TRUE(h->find("checks")->find("queue_ok")->get_bool(false));

  (void)serve::submit_request(cfg.socket_path, "{\"op\":\"shutdown\"}", 1000);
  daemon.join();
  fs::remove_all(dir);
}

TEST(ServeEndToEnd, TraceExportSharesOneTraceIdWithSimTracks) {
  const auto dir = scratch_dir("trace");
  serve::ServerConfig cfg;
  cfg.socket_path = (dir / "serve.sock").string();
  cfg.cache_dir = (dir / "cache").string();
  cfg.jobs = 2;
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  std::thread daemon{[&cfg] { EXPECT_EQ(serve::run_server(cfg), 0); }};

  // Old-client shape: no trace field — the reply must carry no trace
  // either (backward compatibility both ways).
  const std::string plain_req =
      "{\"op\":\"campaign\",\"scenarios\":[\"4\"],"
      "\"seeds\":{\"begin\":0,\"end\":2},\"jobs\":2}";
  const auto plain = serve::submit_request(cfg.socket_path, plain_req, 5000);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_TRUE(plain.trace_json.empty());

  const std::string traced_req =
      "{\"op\":\"campaign\",\"scenarios\":[\"4\"],"
      "\"seeds\":{\"begin\":0,\"end\":2},\"jobs\":2,"
      "\"trace\":{\"id\":\"00000000deadbeef\",\"export\":true}}";
  const auto traced = serve::submit_request(cfg.socket_path, traced_req, 1000);
  ASSERT_TRUE(traced.ok) << traced.error;
  ASSERT_FALSE(traced.trace_json.empty());
  // Telemetry neutrality: the traced submit replays the plain submit's
  // cached cells byte-identically.
  EXPECT_EQ(traced.report_json, plain.report_json);

  const auto doc = serve::parse_json(traced.trace_json);
  ASSERT_TRUE(doc.has_value()) << traced.trace_json.substr(0, 200);
  bool saw_sim_track = false;     // pid 0: the replayed cell's sim events
  bool saw_service_span = false;  // pid 1: the request's service spans
  bool saw_cell_span = false;
  for (const auto& ev : doc->find("traceEvents")->array) {
    const auto* ph = ev.find("ph");
    if (ph == nullptr || ph->get_string() != "X") continue;
    if (ev.find("pid")->get_u64() == 0) {
      saw_sim_track = true;
      continue;
    }
    saw_service_span = true;
    // Every service span carries the client-chosen trace id.
    EXPECT_EQ(ev.find("args")->find("trace_id")->get_string(),
              "00000000deadbeef");
    if (ev.find("name")->get_string() == "cell.compute" ||
        ev.find("name")->get_string() == "cell.probe") {
      saw_cell_span = true;
    }
  }
  EXPECT_TRUE(saw_sim_track);
  EXPECT_TRUE(saw_service_span);
  EXPECT_TRUE(saw_cell_span);
  for (const auto name : {"request campaign", "parse", "plan", "aggregate",
                          "serialize"}) {
    EXPECT_NE(traced.trace_json.find("\"" + std::string{name} + "\""),
              std::string::npos)
        << name;
  }

  (void)serve::submit_request(cfg.socket_path, "{\"op\":\"shutdown\"}", 1000);
  daemon.join();
  fs::remove_all(dir);
}

TEST(ServeEndToEnd, StopFlagShutsTheDaemonDown) {
  const auto dir = scratch_dir("stop");
  serve::ServerConfig cfg;
  cfg.socket_path = (dir / "serve.sock").string();
  cfg.cache_dir = (dir / "cache").string();
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  std::thread daemon{[&cfg] { EXPECT_EQ(serve::run_server(cfg), 0); }};
  const auto ping = serve::submit_request(
      cfg.socket_path, "{\"op\":\"ping\"}", 5000);
  EXPECT_TRUE(ping.ok) << ping.error;
  stop.store(true);
  daemon.join();  // the 200 ms poll tick observes the flag
  fs::remove_all(dir);
}

}  // namespace
