// Serialization round-trips: a loaded artifact must drive a monitor to a
// bit-identical Decision stream, and malformed files must fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/artifact_io.h"
#include "io/serial.h"
#include "monitor/guideline.h"
#include "obs/drift.h"
#include "synthetic_util.h"

namespace {

using namespace aps;
namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "aps_io_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(IoTest, DecisionTreeRoundTrip) {
  ml::DecisionTreeConfig config;
  config.max_depth = 5;
  ml::DecisionTree tree(config);
  tree.fit(testutil::synth_dataset(600, 11));
  ASSERT_TRUE(tree.trained());

  io::save_decision_tree(tree, path("dt.aps"));
  const ml::DecisionTree loaded = io::load_decision_tree(path("dt.aps"));

  EXPECT_EQ(loaded.node_count(), tree.node_count());
  EXPECT_EQ(loaded.depth(), tree.depth());

  monitor::DtMonitor original(
      std::make_shared<const ml::DecisionTree>(tree), 2);
  monitor::DtMonitor reloaded(
      std::make_shared<const ml::DecisionTree>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(
      original, reloaded, testutil::synth_stream(500, 21)));
}

TEST_F(IoTest, MlpRoundTrip) {
  ml::MlpConfig config;
  config.hidden_units = {8, 4};
  config.max_epochs = 3;
  ml::Mlp mlp(config);
  mlp.fit(testutil::synth_dataset(400, 13));
  ASSERT_TRUE(mlp.trained());

  io::save_mlp(mlp, path("mlp.aps"));
  const ml::Mlp loaded = io::load_mlp(path("mlp.aps"));

  EXPECT_EQ(loaded.parameter_count(), mlp.parameter_count());
  // Exact probabilities, not just argmax: weights round-trip bit-for-bit.
  const auto stream = testutil::synth_stream(200, 23);
  for (const auto& obs : stream) {
    const auto features = monitor::ml_features(obs);
    const auto p0 = mlp.predict_proba(features);
    const auto p1 = loaded.predict_proba(features);
    ASSERT_EQ(p0.size(), p1.size());
    for (std::size_t c = 0; c < p0.size(); ++c) EXPECT_EQ(p0[c], p1[c]);
  }

  monitor::MlpMonitor original(std::make_shared<const ml::Mlp>(mlp), 2);
  monitor::MlpMonitor reloaded(std::make_shared<const ml::Mlp>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(original, reloaded, stream));
}

TEST_F(IoTest, LstmRoundTrip) {
  ml::LstmConfig config;
  config.hidden_units = {6};
  config.max_epochs = 2;
  config.batch_size = 16;
  ml::Lstm lstm(config);
  lstm.fit(testutil::synth_sequences(120, 17));
  ASSERT_TRUE(lstm.trained());

  io::save_lstm(lstm, path("lstm.aps"));
  const ml::Lstm loaded = io::load_lstm(path("lstm.aps"));
  EXPECT_EQ(loaded.parameter_count(), lstm.parameter_count());

  // Stateful monitor: the sliding window must behave identically too.
  monitor::LstmMonitor original(std::make_shared<const ml::Lstm>(lstm), 2);
  monitor::LstmMonitor reloaded(std::make_shared<const ml::Lstm>(loaded), 2);
  EXPECT_TRUE(testutil::same_decision_stream(
      original, reloaded, testutil::synth_stream(300, 29)));
}

TEST_F(IoTest, TrainingArtifactsRoundTrip) {
  const core::TrainingArtifacts artifacts = testutil::synth_artifacts(4);
  io::save_training_artifacts(artifacts, path("artifacts.aps"));
  const core::TrainingArtifacts loaded =
      io::load_training_artifacts(path("artifacts.aps"));

  ASSERT_EQ(loaded.profiles.size(), artifacts.profiles.size());
  for (std::size_t p = 0; p < loaded.profiles.size(); ++p) {
    EXPECT_EQ(loaded.profiles[p].basal_rate, artifacts.profiles[p].basal_rate);
    EXPECT_EQ(loaded.profiles[p].isf, artifacts.profiles[p].isf);
    EXPECT_EQ(loaded.profiles[p].steady_state_iob,
              artifacts.profiles[p].steady_state_iob);
  }
  EXPECT_EQ(loaded.patient_thresholds, artifacts.patient_thresholds);
  EXPECT_EQ(loaded.population_thresholds, artifacts.population_thresholds);
  EXPECT_EQ(loaded.target_bg, artifacts.target_bg);
  ASSERT_EQ(loaded.guideline_configs.size(),
            artifacts.guideline_configs.size());
  EXPECT_EQ(loaded.guideline_configs[1].lambda10,
            artifacts.guideline_configs[1].lambda10);
  EXPECT_EQ(loaded.guideline_configs[1].lambda90,
            artifacts.guideline_configs[1].lambda90);

  // CAWT built from loaded thresholds decides identically.
  const auto original_factory = core::cawt_factory(artifacts);
  const auto loaded_factory = core::cawt_factory(loaded);
  const auto stream = testutil::synth_stream(500, 31);
  for (int p = 0; p < 4; ++p) {
    auto a = original_factory(p);
    auto b = loaded_factory(p);
    EXPECT_TRUE(testutil::same_decision_stream(*a, *b, stream));
  }
}

TEST_F(IoTest, BundleRoundTripAllMonitors) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(3);
  {
    ml::DecisionTree tree;
    tree.fit(testutil::synth_dataset(400, 41));
    bundle.dt = std::make_shared<const ml::DecisionTree>(std::move(tree));
  }
  {
    ml::MlpConfig config;
    config.hidden_units = {6};
    config.max_epochs = 2;
    ml::Mlp mlp(config);
    mlp.fit(testutil::synth_dataset(300, 43));
    bundle.mlp = std::make_shared<const ml::Mlp>(std::move(mlp));
  }
  {
    ml::LstmConfig config;
    config.hidden_units = {4};
    config.max_epochs = 1;
    ml::Lstm lstm(config);
    lstm.fit(testutil::synth_sequences(80, 47));
    bundle.lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
  }

  io::save_bundle(bundle, path("bundle.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("bundle.aps"));

  EXPECT_EQ(core::bundle_monitor_names(loaded),
            core::bundle_monitor_names(bundle));
  const auto stream = testutil::synth_stream(400, 53);
  for (const auto& name : core::bundle_monitor_names(bundle)) {
    auto a = core::factory_from_bundle(bundle, name)(0);
    auto b = core::factory_from_bundle(loaded, name)(0);
    EXPECT_TRUE(testutil::same_decision_stream(*a, *b, stream))
        << "monitor '" << name << "' diverged after bundle round-trip";
  }
}

TEST_F(IoTest, BundleTrainingStatsRoundTrip) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  obs::TrainingStats stats;
  for (int f = 0; f < 6; ++f) {
    obs::FeatureSummary feature;
    feature.add(static_cast<double>(f) - 0.25);
    feature.add(static_cast<double>(f) * 3.5);
    feature.add(1e6 + f);
    stats.features.push_back(feature);
  }
  bundle.training_stats =
      std::make_shared<const obs::TrainingStats>(std::move(stats));

  io::save_bundle(bundle, path("with_stats.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("with_stats.aps"));
  ASSERT_NE(loaded.training_stats, nullptr);
  ASSERT_EQ(loaded.training_stats->features.size(), 6u);
  for (std::size_t f = 0; f < 6; ++f) {
    const auto& want = bundle.training_stats->features[f];
    const auto& got = loaded.training_stats->features[f];
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sum, want.sum);        // bit-exact f64 round-trip
    EXPECT_EQ(got.sum_sq, want.sum_sq);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
  }
}

TEST_F(IoTest, StatLessBundleBytesAreLegacyIdentical) {
  // The stats section is written ONLY when stats exist: a stat-less bundle
  // must be byte-identical to one whose stats pointer holds an empty set —
  // i.e. the legacy format, so pre-section files keep loading.
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  io::save_bundle(bundle, path("null_stats.aps"));
  bundle.training_stats = std::make_shared<const obs::TrainingStats>();
  io::save_bundle(bundle, path("empty_stats.aps"));
  const auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read_all(path("null_stats.aps")),
            read_all(path("empty_stats.aps")));
  EXPECT_EQ(io::load_bundle(path("null_stats.aps")).training_stats, nullptr);
}

TEST_F(IoTest, BundleWithoutModelsLoadsNullPointers) {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(2);
  io::save_bundle(bundle, path("rules_only.aps"));
  const core::ArtifactBundle loaded = io::load_bundle(path("rules_only.aps"));
  EXPECT_EQ(loaded.dt, nullptr);
  EXPECT_EQ(loaded.mlp, nullptr);
  EXPECT_EQ(loaded.lstm, nullptr);
  EXPECT_EQ(loaded.training_stats, nullptr);
  EXPECT_THROW((void)core::factory_from_bundle(loaded, "dt"),
               std::runtime_error);
  EXPECT_NO_THROW((void)core::factory_from_bundle(loaded, "cawt"));
}

TEST_F(IoTest, MissingFileFails) {
  try {
    (void)io::load_decision_tree(path("nope.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST_F(IoTest, TruncatedFileFails) {
  ml::DecisionTree tree;
  tree.fit(testutil::synth_dataset(300, 59));
  io::save_decision_tree(tree, path("trunc.aps"));

  const auto full_size = fs::file_size(path("trunc.aps"));
  fs::resize_file(path("trunc.aps"), full_size / 2);
  try {
    (void)io::load_decision_tree(path("trunc.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(IoTest, CorruptMagicFails) {
  io::save_training_artifacts(testutil::synth_artifacts(1),
                              path("magic.aps"));
  {
    std::fstream f(path("magic.aps"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("JUNK", 4);
  }
  try {
    (void)io::load_training_artifacts(path("magic.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("not an APS artifact"),
              std::string::npos);
  }
}

TEST_F(IoTest, VersionMismatchFails) {
  io::save_training_artifacts(testutil::synth_artifacts(1),
                              path("version.aps"));
  {
    std::fstream f(path("version.aps"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);  // version field follows the magic
    const std::uint32_t future_version = 999;
    f.write(reinterpret_cast<const char*>(&future_version),
            sizeof future_version);
  }
  try {
    (void)io::load_training_artifacts(path("version.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos);
    EXPECT_NE(what.find("999"), std::string::npos);
  }
}

TEST_F(IoTest, WrongArtifactKindFails) {
  ml::MlpConfig config;
  config.hidden_units = {4};
  config.max_epochs = 1;
  ml::Mlp mlp(config);
  mlp.fit(testutil::synth_dataset(200, 61));
  io::save_mlp(mlp, path("kind.aps"));
  try {
    (void)io::load_decision_tree(path("kind.aps"));
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kind mismatch"), std::string::npos);
    EXPECT_NE(what.find("mlp"), std::string::npos);
    EXPECT_NE(what.find("decision-tree"), std::string::npos);
  }
}

// ---- BinaryWriter / BinaryReader in memory and file mode -----------------

/// One of every encodable type, including edge values.
void write_every_type(io::BinaryWriter& out) {
  out.u8(0xAB);
  out.u16(0xBEEF);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.f64(-0.1);
  out.f64(std::numeric_limits<double>::denorm_min());
  out.str("wire");
  out.str("");
  out.vec_f64({1.5, -2.25, std::numeric_limits<double>::infinity()});
  out.vec_f64({});
  out.map_f64({{"", -0.0}, {"bg", 123.25}, {"isf", 1e-300}});
}

void expect_every_type(io::BinaryReader& in) {
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(in.str(), "wire");
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.vec_f64(),
            (std::vector<double>{1.5, -2.25,
                                 std::numeric_limits<double>::infinity()}));
  EXPECT_TRUE(in.vec_f64().empty());
  const std::map<std::string, double> map = in.map_f64();
  ASSERT_EQ(map.size(), 3u);
  EXPECT_TRUE(std::signbit(map.at("")));
  EXPECT_EQ(map.at("bg"), 123.25);
  EXPECT_EQ(map.at("isf"), 1e-300);
  EXPECT_EQ(in.remaining(), 0u);
}

/// what() of the IoError `fn` throws ("" when it does not throw).
template <class Fn>
std::string io_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const io::IoError& e) {
    return e.what();
  }
  return "";
}

TEST_F(IoTest, MemoryCodecRoundTripsEveryType) {
  io::BinaryWriter out;
  write_every_type(out);
  const std::vector<std::uint8_t> bytes = out.take();

  io::BinaryReader in(bytes, "frame payload");
  expect_every_type(in);
  EXPECT_EQ(in.consumed(), bytes.size());
  EXPECT_EQ(io_error_of([&] { (void)in.u8(); }),
            "truncated artifact: unexpected end of input in 'frame payload'");
}

TEST_F(IoTest, SinkWriterAppendsToTheCallersBuffer) {
  io::BinaryWriter owned;
  write_every_type(owned);
  const std::vector<std::uint8_t> expected = owned.take();

  std::vector<std::uint8_t> sink = {0x01, 0x02};
  io::BinaryWriter out(sink);
  write_every_type(out);
  ASSERT_EQ(sink.size(), 2 + expected.size());
  EXPECT_EQ(sink[0], 0x01);
  EXPECT_EQ(sink[1], 0x02);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), sink.begin() + 2));
}

TEST_F(IoTest, FileCodecWritesTheMemoryBytesAndKeepsItsErrors) {
  const std::string file = path("codec.bin");
  {
    io::BinaryWriter out(file);
    write_every_type(out);
    out.finish();
  }
  io::BinaryWriter memory;
  write_every_type(memory);
  const std::vector<std::uint8_t> expected = memory.take();
  std::ifstream raw(file, std::ios::binary);
  const std::vector<std::uint8_t> on_disk(
      (std::istreambuf_iterator<char>(raw)), std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, expected);

  io::BinaryReader in(file);
  expect_every_type(in);
  EXPECT_EQ(io_error_of([&] { (void)in.u64(); }),
            "truncated artifact: unexpected end of file in '" + file + "'");

  const std::string missing = path("no/such/dir/codec.bin");
  EXPECT_EQ(io_error_of([&] { io::BinaryWriter w(missing); }),
            "cannot open '" + missing + "' for writing");
  EXPECT_EQ(io_error_of([&] { io::BinaryReader r(missing); }),
            "cannot open '" + missing + "' for reading");
}

TEST_F(IoTest, FileWriteAndFlushFailuresThrow) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  // Larger than any stream buffer, so the write itself reaches the device.
  EXPECT_EQ(io_error_of([] {
              io::BinaryWriter out("/dev/full");
              out.vec_f64(std::vector<double>(1u << 16, 1.0));
            }),
            "write failure on '/dev/full'");
  // Small enough to sit in the buffer until finish() flushes it.
  EXPECT_EQ(io_error_of([] {
              io::BinaryWriter out("/dev/full");
              out.u8(1);
              out.finish();
            }),
            "flush failure on '/dev/full'");
}

TEST_F(IoTest, Crc32MatchesTheBytewiseDefinition) {
  // Check value of CRC-32/ISO-HDLC.
  const std::string check = "123456789";
  EXPECT_EQ(io::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(io::crc32(nullptr, 0), 0u);

  // Every length and start alignment around the 8-byte step, plain and
  // chained, against the textbook bit-at-a-time definition.
  const auto reference = [](const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<std::uint8_t> bytes(80);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t n = 0; start + n <= bytes.size(); ++n) {
      const std::uint8_t* p = bytes.data() + start;
      ASSERT_EQ(io::crc32(p, n), reference(p, n, 0))
          << "start " << start << " length " << n;
      const std::size_t half = n / 2;
      ASSERT_EQ(io::crc32(p + half, n - half, io::crc32(p, half)),
                reference(p, n, 0))
          << "chained, start " << start << " length " << n;
    }
  }
}

}  // namespace
