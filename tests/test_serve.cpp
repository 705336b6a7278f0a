// The CellStore seam behind `campaign --cache-dir`: cache-key
// fingerprints, the cell codec (registry key order included), cold-vs-warm
// and partially-warm byte identity through run_campaign(), the corrupt
// count, the cache.fetch/cache.store profile phases, DiskStore pathologies
// on its pack (corruption down to every single bit, torn tails, superseded
// records, a second live store, engine-version invalidation),
// report-write failures, and the test-only JSON reader the trace tests
// parse with.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include <unistd.h>

#include "analysis/scenarios.hpp"
#include "json_reader.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/cell_store.hpp"
#include "runner/report.hpp"
#include "serve/disk_store.hpp"

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

/// Unique scratch directory under the system temp dir.
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

TEST(CellCodec, RejectsUnsortedOrDuplicateRegistryNames) {
  analysis::ExperimentResult res;
  res.metrics.counter("a.x") = 1;
  res.metrics.counter("a.y") = 2;
  const auto bytes = runner::encode_cell(res);
  const auto at = bytes.find("a.y");
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find("a.y", at + 1), std::string::npos);

  // Same lengths, so only the key order is wrong.
  analysis::ExperimentResult out;
  for (const std::string_view name : {"a.a", "a.x"}) {
    auto patched = bytes;
    patched.replace(at, name.size(), name);
    EXPECT_FALSE(runner::decode_cell(patched, out)) << name;
  }
  ASSERT_TRUE(runner::decode_cell(bytes, out));
  EXPECT_EQ(runner::encode_cell(out), bytes);
  EXPECT_EQ(out.metrics.counter_value("a.y"), 2u);
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

TEST(CampaignCache, PartiallyWarmStoreResumesByteIdentical) {
  // A run killed part-way leaves some cells stored.  Cell keys do not
  // depend on how the seed range is sliced, so a wider rerun replays the
  // stored cells, computes the rest, and lands on the cold run's bytes.
  runner::MemoryStore store;
  auto first = small_campaign(&store);
  first.seeds = {0, 2};
  (void)runner::run_campaign(first);

  auto full = small_campaign(&store);
  full.seeds = {0, 5};
  const auto resumed = runner::run_campaign(full);
  EXPECT_EQ(resumed.cache_hits, 2u);
  EXPECT_EQ(resumed.cache_misses, 3u);

  auto cold = small_campaign();
  cold.seeds = {0, 5};
  EXPECT_EQ(runner::to_json(resumed),
            runner::to_json(runner::run_campaign(cold)));
}

TEST(CampaignCache, ProfileTimesEveryFetchAndStore) {
  runner::MemoryStore store;
  auto cfg = small_campaign(&store);
  const auto cold = runner::run_campaign(cfg);
  const auto warm = runner::run_campaign(cfg);
  const auto uncached = runner::run_campaign(small_campaign());
  const auto calls = [](const runner::CampaignReport& rep,
                        std::string_view phase) -> std::uint64_t {
    const auto it = rep.profile.phases().find(phase);
    return it == rep.profile.phases().end() ? 0 : it->second.calls;
  };
  EXPECT_EQ(calls(cold, "cache.store"), cold.cache_misses);
  EXPECT_EQ(calls(warm, "cache.fetch"), warm.cache_hits);
  EXPECT_EQ(calls(warm, "cache.store"), 0u);
  EXPECT_EQ(calls(uncached, "cache.fetch"), 0u);

  // The phases show in the runtime block and nowhere before it.
  runner::JsonOptions opts;
  opts.include_runtime = true;
  const auto warm_json = runner::to_json(warm, opts);
  EXPECT_NE(warm_json.find("\"cache.fetch\":{\"calls\":"), std::string::npos);
  const auto before_runtime = [&opts](const runner::CampaignReport& rep) {
    const auto json = runner::to_json(rep, opts);
    return json.substr(0, json.find(",\"runtime\":"));
  };
  EXPECT_EQ(before_runtime(cold), before_runtime(uncached));
  EXPECT_EQ(before_runtime(warm), before_runtime(uncached));
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

fs::path pack_of(const fs::path& dir) { return dir / "cells.pack"; }

/// Flip bit `bit` of the byte at `offset` in `file`.
void flip_bit(const fs::path& file, std::uint64_t offset, int bit) {
  std::fstream f{file, std::ios::in | std::ios::out | std::ios::binary};
  f.seekg(static_cast<std::streamoff>(offset));
  const auto byte = static_cast<char>(f.get() ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(byte);
}

TEST(CampaignCache, StoreRejectedRecordCountsAsCorrupt) {
  const auto dir = scratch_dir("rejected");
  serve::DiskStore store{dir};
  auto cfg = small_campaign(&store);
  const auto cold = runner::run_campaign(cfg);
  EXPECT_EQ(cold.cache_corrupt, 0u);

  // The last payload byte of the last record: the store's checksum rejects
  // it, so the decoder never sees it.
  flip_bit(pack_of(dir), fs::file_size(pack_of(dir)) - 1, 0);
  const auto warm = runner::run_campaign(cfg);
  EXPECT_EQ(warm.cache_corrupt, 1u);
  EXPECT_EQ(warm.cache_misses, 1u);
  EXPECT_EQ(runner::to_json(cold), runner::to_json(warm));

  // The count is this run's: the recomputed cell was re-stored.
  const auto again = runner::run_campaign(cfg);
  EXPECT_EQ(again.cache_corrupt, 0u);
  EXPECT_EQ(again.cache_hits, again.tasks.size());
  fs::remove_all(dir);
}

// ----------------------------------------------------------- DiskStore --

/// Overwrite the byte `from_end` bytes before the end of `file`.
void flip_byte_from_end(const fs::path& file, std::streamoff from_end) {
  std::fstream f{file, std::ios::in | std::ios::out | std::ios::binary};
  f.seekp(-from_end, std::ios::end);
  f.put('!');
}

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
  EXPECT_EQ(reopened.stats().bytes, 10u);  // exact, from the record header
  EXPECT_EQ(reopened.fetch(key).value_or(""), "hello cell");
  // One pack per directory, nothing beside it.
  std::vector<fs::path> files;
  for (const auto& de : fs::directory_iterator{dir}) files.push_back(de.path());
  EXPECT_EQ(files, std::vector<fs::path>{pack_of(dir)});
  fs::remove_all(dir);
}

TEST(DiskStore, TruncatedEntryIsCorruptNotFatal) {
  const auto dir = scratch_dir("trunc");
  serve::DiskStore store{dir};
  runner::CellKey key;
  key.spec_hash = 1;
  store.store(key, std::string(256, 'x'));

  // Cut the pack mid-record: the payload can no longer be read whole, so
  // the fetch must report a miss and drop the entry.
  const auto pack = pack_of(dir);
  ASSERT_TRUE(fs::exists(pack));
  fs::resize_file(pack, fs::file_size(pack) / 2);

  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_EQ(store.stats().entries, 0u);

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

  flip_byte_from_end(pack_of(dir), 3);
  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);

  store.store(key, "payload-that-will-rot");
  EXPECT_EQ(store.fetch(key).value_or(""), "payload-that-will-rot");
  fs::remove_all(dir);
}

TEST(DiskStore, EveryFlippedPayloadBitIsCaught) {
  const auto dir = scratch_dir("everybit");
  runner::CellKey key;
  key.spec_hash = 8;
  // Not a multiple of 8 bytes: two whole words and a 5-byte tail.
  const std::string payload = "twenty-one byte cell.";
  ASSERT_EQ(payload.size(), 21u);
  { serve::DiskStore{dir}.store(key, payload); }
  const auto pack = pack_of(dir);
  const auto start = fs::file_size(pack) - payload.size();
  for (std::uint64_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      flip_bit(pack, start + byte, bit);
      serve::DiskStore fresh{dir};
      EXPECT_FALSE(fresh.fetch(key).has_value())
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(fresh.stats().corrupt, 1u);
      flip_bit(pack, start + byte, bit);
    }
  }
  EXPECT_EQ(serve::DiskStore{dir}.fetch(key).value_or(""), payload);
  fs::remove_all(dir);
}

TEST(DiskStore, FlippedTopBitsOfAdjacentWordsAreCaught) {
  // Bit 63 of a 64-bit word survives a multiply by any odd prime as bit 63
  // alone, so a checksum that took whole words would let these two flips
  // cancel and serve the rotted bytes.
  const auto dir = scratch_dir("topbits");
  runner::CellKey key;
  key.spec_hash = 9;
  const std::string payload = "sixteen byte pay";
  { serve::DiskStore{dir}.store(key, payload); }
  const auto pack = pack_of(dir);
  const auto start = fs::file_size(pack) - payload.size();
  flip_bit(pack, start + 7, 7);
  flip_bit(pack, start + 15, 7);
  serve::DiskStore store{dir};
  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  fs::remove_all(dir);
}

TEST(DiskStore, StartupSweepDropsAndCountsTornShortFiles) {
  const auto dir = scratch_dir("sweep");
  runner::CellKey key;
  key.spec_hash = 5;
  {
    serve::DiskStore store{dir};
    store.store(key, "survives the restart");
  }
  // A header cut short by a killed run: the pack's torn tail.
  const auto pack = pack_of(dir);
  const auto whole = fs::file_size(pack);
  std::ofstream{pack, std::ios::binary | std::ios::app} << "MCPK\x10";

  serve::DiskStore reopened{dir};
  const auto s = reopened.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.entries, 1u);  // only the whole record was indexed
  EXPECT_EQ(fs::file_size(pack), whole);  // and the tail is cut away
  EXPECT_EQ(reopened.fetch(key).value_or(""), "survives the restart");
  fs::remove_all(dir);
}

TEST(DiskStore, StoreAfterATornTailSurvivesAnotherReopen) {
  const auto dir = scratch_dir("resume");
  runner::CellKey a;
  a.spec_hash = 3;
  runner::CellKey b;
  b.spec_hash = 4;
  const std::string b_bytes(64, 'b');
  {
    serve::DiskStore store{dir};
    store.store(a, "first");
    store.store(b, b_bytes);
  }
  // A run killed mid-append leaves its last record cut short.
  fs::resize_file(pack_of(dir), fs::file_size(pack_of(dir)) - 10);
  {
    serve::DiskStore resumed{dir};
    EXPECT_EQ(resumed.stats().corrupt, 1u);
    EXPECT_EQ(resumed.stats().entries, 1u);
    EXPECT_FALSE(resumed.fetch(b).has_value());
    resumed.store(b, b_bytes);  // appended where the torn record began
  }
  serve::DiskStore again{dir};
  EXPECT_EQ(again.stats().corrupt, 0u);
  EXPECT_EQ(again.stats().entries, 2u);
  EXPECT_EQ(again.fetch(a).value_or(""), "first");
  EXPECT_EQ(again.fetch(b).value_or(""), b_bytes);
  fs::remove_all(dir);
}

TEST(DiskStore, ReStoreAfterACorruptFetchSupersedesItAcrossAReopen) {
  const auto dir = scratch_dir("supersede");
  runner::CellKey key;
  key.spec_hash = 6;
  {
    serve::DiskStore store{dir};
    store.store(key, "good bytes");
  }
  flip_byte_from_end(pack_of(dir), 1);
  {
    serve::DiskStore store{dir};
    EXPECT_FALSE(store.fetch(key).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    store.store(key, "good bytes");
  }
  // The rotted record is still in the pack; the later one wins.
  serve::DiskStore reopened{dir};
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().bytes, 10u);
  EXPECT_EQ(reopened.fetch(key).value_or(""), "good bytes");
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  fs::remove_all(dir);
}

TEST(DiskStore, SecondLiveStoreOnTheSameDirThrows) {
  const auto dir = scratch_dir("locked");
  {
    serve::DiskStore first{dir};
    try {
      serve::DiskStore second{dir};
      ADD_FAILURE() << "a second live store opened " << dir;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(dir.string()), std::string::npos)
          << e.what();
    }
  }
  // The lock goes with its store.
  EXPECT_NO_THROW(serve::DiskStore{dir});
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

// --------------------------------------------------------- JSON reader --

TEST(Wire, JsonParserHandlesTheProtocolShapes) {
  const auto v = test::parse_json(
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
  EXPECT_EQ(v->find("nil")->kind, test::JsonValue::Kind::Null);
  EXPECT_EQ(v->find("msg")->get_string(), "a\"b\\c\nA");
  EXPECT_EQ(v->find("absent"), nullptr);
}

TEST(Wire, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(test::parse_json("").has_value());
  EXPECT_FALSE(test::parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(test::parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(test::parse_json("{\"a\"}").has_value());
  EXPECT_FALSE(test::parse_json("\"unterminated").has_value());
  EXPECT_FALSE(test::parse_json("{'single':1}").has_value());
  EXPECT_FALSE(test::parse_json("[1,2,").has_value());
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(test::parse_json(deep).has_value());  // depth-limited
}

}  // namespace
