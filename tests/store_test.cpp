// Embedded time-series store tests (DESIGN.md §13): codec round-trip
// property (bitwise, NaN payloads and in-band bits included), page
// capacity, segment/ring retention, index-written-last commit discipline,
// torn-write fuzz recovery at every frame boundary, writer backpressure,
// and serve-path equivalence (replay == detect == store, plus warm restart
// from segments reproducing the CSV-restored detections bitwise).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "core/nodesentry.hpp"
#include "io/dataset_io.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "serve/session.hpp"
#include "sim/dataset_builder.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"
#include "ts/quality.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

std::string temp_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("ns_store_test_" + tag + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

void expect_samples_equal(const StoreSample& got, const StoreSample& want,
                          const std::string& where) {
  ASSERT_EQ(got.t, want.t) << where;
  ASSERT_EQ(got.job_id, want.job_id) << where;
  ASSERT_EQ(got.anomaly, want.anomaly) << where;
  ASSERT_EQ(got.valid, want.valid) << where;
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (std::size_t m = 0; m < want.values.size(); ++m)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[m]),
              std::bit_cast<std::uint32_t>(want.values[m]))
        << where << " metric " << m;
}

/// Random trace shaped like real telemetry: constant columns, slow drifts,
/// NaN holes (with varying payload bits), irregular tick gaps, job
/// transitions, sparse anomaly/validity bits.
std::vector<StoreSample> random_trace(std::mt19937_64& rng, std::size_t rows,
                                      std::size_t num_metrics) {
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  std::uniform_int_distribution<int> gap(1, 7);
  std::vector<StoreSample> trace;
  trace.reserve(rows);
  std::size_t t = rng() % 1000;
  std::int64_t job = static_cast<std::int64_t>(rng() % 5) - 1;
  std::vector<float> level(num_metrics);
  for (float& v : level) v = unit(rng) * 100.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    StoreSample sample;
    sample.t = t;
    t += unit(rng) < 0.8f ? 1 : static_cast<std::size_t>(gap(rng));
    if (unit(rng) < 0.05f) job = static_cast<std::int64_t>(rng() % 900) - 1;
    sample.job_id = job;
    sample.anomaly = unit(rng) < 0.03f;
    sample.valid = unit(rng) >= 0.02f;
    sample.values.resize(num_metrics);
    for (std::size_t m = 0; m < num_metrics; ++m) {
      const float roll = unit(rng);
      if (roll < 0.05f) {
        // NaN with a varying payload: bit preservation must survive it.
        sample.values[m] = std::bit_cast<float>(
            0x7FC00000u | static_cast<std::uint32_t>(rng() & 0xFFFFu));
      } else if (m % 3 == 0) {
        sample.values[m] = level[m];  // constant column
      } else if (roll < 0.7f) {
        sample.values[m] = level[m] + 1e-4f * unit(rng);  // near-duplicate
      } else {
        sample.values[m] = unit(rng) * 1e6f - 5e5f;
      }
    }
    trace.push_back(std::move(sample));
  }
  return trace;
}

// ------------------------------------------------------------------ codec

TEST(StoreCodec, BitStreamPrimitivesRoundTrip) {
  BitWriter w;
  w.write_bit(1);
  w.write_bits(0b1011010, 7);
  w.write_varint(0);
  w.write_varint(127);
  w.write_varint(300);
  w.write_varint(0xDEADBEEFCAFEull);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_bit(), 1u);
  EXPECT_EQ(r.read_bits(7), 0b1011010u);
  EXPECT_EQ(r.read_varint(), 0u);
  EXPECT_EQ(r.read_varint(), 127u);
  EXPECT_EQ(r.read_varint(), 300u);
  EXPECT_EQ(r.read_varint(), 0xDEADBEEFCAFEull);
  EXPECT_THROW(r.read_bits(16), ParseError);  // past the end
}

// Fields wider than one word holds at every offset (the dod escape writes
// 64 bits) move as two halves. Pinned against a bit-at-a-time packer at
// each bit offset into the first byte; a 64-bit read with fewer bits left
// must throw.
TEST(StoreCodec, WideFieldsMatchABitAtATimePackerAtEveryOffset) {
  const std::uint64_t a = 0xF0E1D2C3B4A59687ull;
  const std::uint64_t b = 0x0123456789ABCDEFull;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<std::uint8_t> want;
    std::size_t want_bits = 0;
    const auto put = [&](std::uint64_t value, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i, ++want_bits) {
        if (want_bits % 8 == 0) want.push_back(0);
        want.back() |= static_cast<std::uint8_t>(((value >> i) & 1u)
                                                 << (want_bits % 8));
      }
    };
    BitWriter w;
    for (const auto& [value, count] :
         {std::pair{std::uint64_t{0x55}, offset}, std::pair{a, std::size_t{64}},
          std::pair{b, std::size_t{58}}, std::pair{a, std::size_t{57}},
          std::pair{std::uint64_t{1}, std::size_t{1}}}) {
      w.write_bits(value, count);
      put(value, count);
    }
    const std::span<const std::uint8_t> bytes = w.bytes();
    ASSERT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), want)
        << "offset " << offset;
    BitReader r(bytes);
    EXPECT_EQ(r.read_bits(offset), 0x55u & ((1u << offset) - 1));
    EXPECT_EQ(r.read_bits(64), a);
    EXPECT_EQ(r.read_bits(58), b & ((std::uint64_t{1} << 58) - 1));
    EXPECT_EQ(r.read_bits(57), a & ((std::uint64_t{1} << 57) - 1));
    EXPECT_EQ(r.read_bit(), 1u);
    // Fewer than 64 bits left after the offset: a 64-bit read must throw.
    BitReader cut(bytes.first((offset + 63) / 8));
    cut.read_bits(offset);
    EXPECT_THROW(cut.read_bits(64), ParseError) << "offset " << offset;
  }
}

TEST(StoreCodec, TruncateRollsBackCleanly) {
  BitWriter w;
  w.write_bits(0b101, 3);
  const std::size_t mark = w.bit_count();
  w.write_bits(0xFFFFFFFFu, 32);
  w.truncate(mark);
  w.write_bits(0b01, 2);  // must OR into zeroed tail bits
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(2), 0b01u);
}

TEST(StoreCodec, RoundTripPropertyBitwise) {
  std::mt19937_64 rng(20250809);
  for (std::size_t trial = 0; trial < 30; ++trial) {
    const std::size_t num_metrics = 1 + rng() % 8;
    const std::size_t rows = 1 + rng() % 200;
    const std::vector<StoreSample> trace = random_trace(rng, rows, num_metrics);
    PageBuilder builder(num_metrics, 1 << 20);
    for (const StoreSample& sample : trace)
      ASSERT_TRUE(builder.append(sample));
    ASSERT_EQ(builder.samples(), rows);
    EXPECT_EQ(builder.first_tick(), trace.front().t);
    EXPECT_EQ(builder.last_tick(), trace.back().t);
    const std::vector<std::uint8_t> payload = builder.finish();
    PageReader reader(payload, num_metrics, rows);
    StoreSample out;
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(reader.next(out));
      expect_samples_equal(out, trace[r],
                           "trial " + std::to_string(trial) + " row " +
                               std::to_string(r));
    }
    EXPECT_FALSE(reader.next(out));
  }
}

TEST(StoreCodec, SteadyTraceCompressesHard) {
  // Regular cadence + constant values: dod and XOR both hit their 1-bit
  // paths, so a row costs ~(4 + M) bits.
  const std::size_t M = 8;
  PageBuilder builder(M, 1 << 20);
  StoreSample sample;
  sample.values.assign(M, 42.5f);
  sample.job_id = 17;
  for (std::size_t t = 0; t < 500; ++t) {
    sample.t = t;
    ASSERT_TRUE(builder.append(sample));
  }
  const std::vector<std::uint8_t> payload = builder.finish();
  // Raw would be 500 * 8 * 4 = 16000 bytes; in-band coding should land
  // near 500 * 12 bits = 750 bytes.
  EXPECT_LT(payload.size(), 1200u);
}

TEST(StoreCodec, CapacityRejectsWithoutSideEffects) {
  const std::size_t M = 4;
  PageBuilder builder(M, 48);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  StoreSample sample;
  sample.values.resize(M);
  std::size_t t = 0;
  std::vector<StoreSample> accepted;
  while (true) {
    sample.t = t++;
    for (float& v : sample.values) v = unit(rng);
    if (!builder.append(sample)) break;
    accepted.push_back(sample);
    ASSERT_LT(accepted.size(), 1000u) << "page never filled";
  }
  ASSERT_GE(accepted.size(), 1u);  // a page always takes one sample
  EXPECT_LE(builder.payload_bytes(), 48u);
  EXPECT_EQ(builder.samples(), accepted.size());
  // The rejected row left no trace: the accepted prefix decodes intact.
  const std::vector<std::uint8_t> payload = builder.finish();
  PageReader reader(payload, M, accepted.size());
  StoreSample out;
  for (std::size_t r = 0; r < accepted.size(); ++r) {
    ASSERT_TRUE(reader.next(out));
    expect_samples_equal(out, accepted[r], "row " + std::to_string(r));
  }
}

// The largest row after the first — a tick jump past the 20-bit dod bucket
// (4 + 64 bits), a job change as a ten-group varint (1 + 80), the two
// in-band bits, and a fresh 32-bit XOR window per metric (44 each) — tried
// at every bit position near the page end. A row may skip the rollback
// snapshot only while this worst case still fits, so the page boundary
// must fall exactly where the bit count says, and a rejected row must
// leave the page as it was.
TEST(StoreCodec, WorstCaseRowRollsBackAtEveryPositionNearThePageEnd) {
  const std::size_t M = 3;
  const std::size_t capacity = 96;
  const std::size_t worst_bits = 68 + 81 + 2 + 44 * M;
  bool saw_accept = false;
  bool saw_reject = false;
  for (std::size_t steady = 0; steady < 80; ++steady) {
    PageBuilder builder(M, capacity);
    std::vector<StoreSample> accepted;
    StoreSample sample;
    sample.job_id = 5;
    sample.values.assign(M, 0.0f);
    // First row: 8 + 8 + 2 + 32 * M bits; the first steady row after it
    // has dod 1 (2 + 7 bits), later ones cost 1 + 1 + 2 + M bits.
    std::size_t bits = 8 + 8 + 2 + 32 * M;
    bool fits = true;
    for (std::size_t t = 0; t <= steady && fits; ++t) {
      sample.t = t;
      fits = builder.append(sample);
      if (fits) accepted.push_back(sample);
      if (t > 0) bits += (t == 1 ? 9 : 1) + 1 + 2 + M;
    }
    if (!fits) break;
    StoreSample worst;
    worst.t = sample.t + (std::size_t{1} << 40);
    worst.job_id = sample.job_id + (std::int64_t{1} << 62);
    worst.anomaly = true;
    worst.values.assign(M, std::bit_cast<float>(0x80000001u));
    const std::size_t before = builder.payload_bytes();
    ASSERT_EQ(before, (bits + 7) / 8) << "steady " << steady;
    const bool took = builder.append(worst);
    EXPECT_EQ(took, (bits + worst_bits + 7) / 8 <= capacity)
        << "steady " << steady;
    EXPECT_LE(builder.payload_bytes(), capacity) << "steady " << steady;
    if (took) {
      accepted.push_back(worst);
      saw_accept = true;
    } else {
      EXPECT_EQ(builder.payload_bytes(), before) << "steady " << steady;
      saw_reject = true;
    }
    ASSERT_EQ(builder.samples(), accepted.size());
    const std::vector<std::uint8_t> payload = builder.finish();
    PageReader reader(payload, M, accepted.size());
    StoreSample out;
    for (std::size_t r = 0; r < accepted.size(); ++r) {
      ASSERT_TRUE(reader.next(out));
      expect_samples_equal(out, accepted[r],
                           "steady " + std::to_string(steady) + " row " +
                               std::to_string(r));
    }
  }
  EXPECT_TRUE(saw_accept);
  EXPECT_TRUE(saw_reject);
}

// ------------------------------------------------------------------ store

StoreMeta small_meta(std::size_t nodes, std::size_t metrics) {
  StoreMeta meta;
  meta.metrics.resize(metrics);
  for (std::size_t m = 0; m < metrics; ++m)
    meta.metrics[m].name = "metric_" + std::to_string(m);
  for (std::size_t n = 0; n < nodes; ++n)
    meta.node_names.push_back("node" + std::to_string(n));
  return meta;
}

// The on-disk bytes are a compatibility contract: a store sealed by an
// earlier build must decode bitwise. These CRC32s were taken from the
// bit-at-a-time codec, so they move with any change to the bit layout,
// the page boundaries or the frame format. (The traces come from
// libstdc++'s std distributions, which the standard leaves
// implementation-defined.)
TEST(StoreCodec, PayloadBytesArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::size_t capacity;
    std::size_t pages;
    std::uint32_t crc;
  };
  // Capacity 48 holds a row or two, so most appends run the rollback.
  const Pin pins[] = {
      {11, 48, 245, 0xBF99A169u}, {11, 256, 31, 0xEC33E459u},
      {11, 4096, 2, 0x4F0C38ECu}, {22, 48, 230, 0x8AF8DEDFu},
      {22, 256, 30, 0xFBCE0B50u}, {22, 4096, 2, 0x4E9FA357u},
      {33, 48, 238, 0x4CA8842Eu}, {33, 256, 30, 0x6D7FDF33u},
      {33, 4096, 2, 0x8951C0FCu},
  };
  for (const Pin& pin : pins) {
    std::mt19937_64 rng(pin.seed);
    const std::vector<StoreSample> trace = random_trace(rng, 400, 6);
    PageBuilder builder(6, pin.capacity);
    std::uint32_t crc = 0;
    std::size_t pages = 0;
    const auto seal = [&] {
      const std::vector<std::uint8_t> payload = builder.finish();
      crc = crc32(payload.data(), payload.size(), crc);
      ++pages;
    };
    for (const StoreSample& sample : trace) {
      if (builder.append(sample)) continue;
      seal();
      ASSERT_TRUE(builder.append(sample));
    }
    seal();
    EXPECT_EQ(pages, pin.pages) << "seed " << pin.seed << " cap " << pin.capacity;
    EXPECT_EQ(crc, pin.crc) << "seed " << pin.seed << " cap " << pin.capacity;
  }
  // One flushed segment file, frame headers included.
  const std::string dir = temp_dir("pinned");
  {
    std::mt19937_64 rng(44);
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(1, 5),
                                                    StoreConfig{256, 64, 0});
    for (const StoreSample& sample : random_trace(rng, 300, 5))
      store.append(0, sample);
    store.flush();
  }
  EXPECT_EQ(crc32(read_file(
                (fs::path(dir) / "node_0" / "seg_000000.nss").string())),
            0xAE85DF39u);
  fs::remove_all(dir);
}

TEST(StoreFiles, RoundTripAcrossReopen) {
  const std::string dir = temp_dir("roundtrip");
  std::mt19937_64 rng(42);
  std::vector<std::vector<StoreSample>> traces;
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(2, 5),
                                                    StoreConfig{256, 4, 0});
    for (std::size_t n = 0; n < 2; ++n) {
      traces.push_back(random_trace(rng, 300, 5));
      for (const StoreSample& sample : traces[n]) store.append(n, sample);
    }
    store.flush();
    EXPECT_GT(store.node_segments(0), 1u);  // rollover exercised
  }
  TimeSeriesStore store = TimeSeriesStore::open(dir);
  ASSERT_EQ(store.num_nodes(), 2u);
  ASSERT_EQ(store.num_metrics(), 5u);
  EXPECT_EQ(store.meta().metrics[3].name, "metric_3");
  for (std::size_t n = 0; n < 2; ++n) {
    ASSERT_EQ(store.node_samples(n), traces[n].size());
    TimeSeriesStore::Cursor cursor =
        store.range(n, 0, traces[n].back().t + 1);
    StoreSample out;
    for (std::size_t r = 0; r < traces[n].size(); ++r) {
      ASSERT_TRUE(cursor.next(out));
      expect_samples_equal(out, traces[n][r],
                           "node " + std::to_string(n) + " row " +
                               std::to_string(r));
    }
    EXPECT_FALSE(cursor.next(out));
  }
  fs::remove_all(dir);
}

TEST(StoreFiles, RangeQueryPrunesToExactTicks) {
  const std::string dir = temp_dir("range");
  TimeSeriesStore store =
      TimeSeriesStore::create(dir, small_meta(1, 2), StoreConfig{96, 64, 0});
  StoreSample sample;
  sample.values.assign(2, 0.0f);
  for (std::size_t t = 10; t < 400; t += 3) {  // ticks 10, 13, ..., 397
    sample.t = t;
    sample.values[0] = static_cast<float>(t);
    store.append(0, sample);
  }
  store.flush();
  EXPECT_GT(store.node_pages(0), 1u);
  TimeSeriesStore::Cursor cursor = store.range(0, 100, 200);
  StoreSample out;
  std::size_t expect_t = 100;  // first stored tick >= 100 is 100? 10+3k
  while (expect_t % 3 != 1) ++expect_t;  // ticks are 10 + 3k => t % 3 == 1
  std::size_t count = 0;
  while (cursor.next(out)) {
    EXPECT_GE(out.t, 100u);
    EXPECT_LT(out.t, 200u);
    EXPECT_EQ(out.values[0], static_cast<float>(out.t));
    ++count;
  }
  std::size_t want = 0;
  for (std::size_t t = 10; t < 400; t += 3)
    if (t >= 100 && t < 200) ++want;
  EXPECT_EQ(count, want);
  // Empty and out-of-range windows.
  EXPECT_FALSE(store.range(0, 0, 10).next(out));
  EXPECT_FALSE(store.range(0, 398, 10000).next(out));
  fs::remove_all(dir);
}

TEST(StoreFiles, IndexCommitsLast) {
  const std::string dir = temp_dir("commit");
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(1, 2));
    StoreSample sample;
    sample.t = 0;
    sample.values.assign(2, 1.0f);
    store.append(0, sample);
    // No flush: segment bytes may exist, but the commit point (index)
    // never landed — this store does not exist yet.
  }
  EXPECT_THROW(TimeSeriesStore::open(dir), ParseError);
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(1, 2));
    StoreSample sample;
    sample.t = 0;
    sample.values.assign(2, 1.0f);
    store.append(0, sample);
    store.flush();
  }
  EXPECT_NO_THROW(TimeSeriesStore::open(dir));
  fs::remove_all(dir);
}

TEST(StoreFiles, RingRetentionEvictsOldestSegments) {
  const std::string dir = temp_dir("ring");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(1, 2), StoreConfig{64, 2, /*retain_segments=*/3});
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  StoreSample sample;
  sample.values.resize(2);
  for (std::size_t t = 0; t < 2000; ++t) {
    sample.t = t;
    for (float& v : sample.values) v = unit(rng);
    store.append(0, sample);
  }
  store.flush();
  EXPECT_GT(store.stats().segments_evicted, 0u);
  EXPECT_LE(store.node_segments(0), 3u);
  EXPECT_GT(store.node_first_tick(0), 0u);
  // On disk too: only the retained files remain.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "node_0"))
    files += entry.is_regular_file();
  EXPECT_LE(files, 3u);
  // The survivors still read back contiguously.
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  std::size_t count = 0;
  std::size_t prev = 0;
  bool any = false;
  TimeSeriesStore::Cursor cursor = reopened.range(0, 0, 2000);
  StoreSample out;
  while (cursor.next(out)) {
    if (any) {
      EXPECT_EQ(out.t, prev + 1);
    }
    prev = out.t;
    any = true;
    ++count;
  }
  EXPECT_EQ(count, reopened.node_samples(0));
  fs::remove_all(dir);
}

// --------------------------------------------------------- crash recovery

/// Writes a one-node store with several frames in one segment file and
/// returns the sealed page catalog (offset/size per frame).
std::vector<TimeSeriesStore::PageEntry> build_torn_target(
    const std::string& dir, std::vector<StoreSample>* trace_out) {
  std::mt19937_64 rng(99);
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(1, 4), StoreConfig{128, 64, 0});
  *trace_out = random_trace(rng, 400, 4);
  for (const StoreSample& sample : *trace_out) store.append(0, sample);
  store.flush();
  return store.node_catalog(0);
}

TEST(StoreChaos, TornWriteRecoversLongestValidPrefixAtEveryBoundary) {
  const std::string dir = temp_dir("torn");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  ASSERT_GT(catalog.size(), 4u);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  const std::uintmax_t full_size = fs::file_size(seg);

  // Truncate at every frame boundary, descending, and at ragged offsets
  // inside the torn frame (header-only, half the header, half the
  // payload). The reader must recover exactly the frames before the cut —
  // never throw, never read past garbage.
  for (std::size_t k = catalog.size(); k-- > 0;) {
    const std::uint64_t boundary = catalog[k].offset;
    std::size_t want = 0;
    for (std::size_t p = 0; p < k; ++p) want += catalog[p].samples;
    for (const std::uint64_t cut :
         {boundary + kPageFrameHeaderSize + catalog[k].payload_bytes / 2,
          boundary + kPageFrameHeaderSize, boundary + 7, boundary}) {
      if (cut >= full_size) continue;
      const std::uint64_t prev_size = fs::file_size(seg);
      if (cut > prev_size) continue;
      fs::resize_file(seg, cut);
      TimeSeriesStore store = TimeSeriesStore::open(dir);
      // A cut inside frame k keeps frames [0, k); only the boundary cut
      // at exactly catalog[k].offset also drops frame k itself.
      const std::size_t recovered =
          cut > boundary ? want + (cut >= boundary + kPageFrameHeaderSize +
                                             catalog[k].payload_bytes
                                       ? catalog[k].samples
                                       : 0)
                         : want;
      ASSERT_EQ(store.node_samples(0), recovered) << "cut at " << cut;
      TimeSeriesStore::Cursor cursor = store.range(0, 0, trace.back().t + 1);
      StoreSample out;
      for (std::size_t r = 0; r < recovered; ++r) {
        ASSERT_TRUE(cursor.next(out)) << "cut " << cut << " row " << r;
        expect_samples_equal(out, trace[r], "cut " + std::to_string(cut));
      }
      EXPECT_FALSE(cursor.next(out));
    }
  }
  fs::remove_all(dir);
}

TEST(StoreChaos, CorruptFrameEndsThatFilesHistory) {
  const std::string dir = temp_dir("flip");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  ASSERT_GT(catalog.size(), 2u);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  // Flip one payload byte of the second frame: its CRC fails, so recovery
  // keeps frame 0 only (frames after a bad frame are unreachable — the
  // stream cannot be trusted past the corruption).
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(catalog[1].offset +
                                        kPageFrameHeaderSize + 3));
    char byte = 0;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(catalog[1].offset +
                                        kPageFrameHeaderSize + 3));
    f.write(&byte, 1);
  }
  TimeSeriesStore store = TimeSeriesStore::open(dir);
  EXPECT_EQ(store.node_samples(0), catalog[0].samples);
  fs::remove_all(dir);
}

TEST(StoreChaos, AppendsAfterRecoveryLandInFreshSegment) {
  const std::string dir = temp_dir("recover_append");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  // Tear mid-way through the last frame.
  const TimeSeriesStore::PageEntry& last = catalog.back();
  fs::resize_file(seg, last.offset + kPageFrameHeaderSize + 1);
  std::size_t recovered = 0;
  for (std::size_t p = 0; p + 1 < catalog.size(); ++p)
    recovered += catalog[p].samples;

  TimeSeriesStore store = TimeSeriesStore::open(dir);
  ASSERT_EQ(store.node_samples(0), recovered);
  // Repaired history is immutable: new samples go to a fresh segment file,
  // never appended behind the torn tail.
  StoreSample sample;
  sample.t = trace.back().t + 100;
  sample.values.assign(4, 3.25f);
  store.append(0, sample);
  store.flush();
  EXPECT_TRUE(fs::exists(fs::path(dir) / "node_0" / "seg_000001.nss"));

  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0), recovered + 1);
  TimeSeriesStore::Cursor cursor =
      reopened.range(0, sample.t, sample.t + 1);
  StoreSample out;
  ASSERT_TRUE(cursor.next(out));
  expect_samples_equal(out, sample, "post-recovery append");
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- writer

TEST(StoreWriterTest, WritesEverythingAndDrainsDurably) {
  const std::string dir = temp_dir("writer");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(2, 3)),
                       StoreWriterConfig{0}, &registry);
    std::mt19937_64 rng(1);
    std::vector<std::vector<StoreSample>> traces;
    for (std::size_t n = 0; n < 2; ++n) {
      traces.push_back(random_trace(rng, 150, 3));
      for (std::size_t base = 0; base < 150; base += 50) {
        StoreWriter::Batch batch;
        batch.node = n;
        batch.samples.assign(
            traces[n].begin() + static_cast<std::ptrdiff_t>(base),
            traces[n].begin() + static_cast<std::ptrdiff_t>(base + 50));
        writer.enqueue(std::move(batch));
      }
    }
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), 6u);
    EXPECT_EQ(writer.batches_dropped(), 0u);
    EXPECT_EQ(writer.samples_written(), 300u);
    for (std::size_t n = 0; n < 2; ++n)
      EXPECT_EQ(writer.store().node_samples(n), 150u);
  }
  // The drain made it durable: a fresh open sees every sample.
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0) + reopened.node_samples(1), 300u);
  fs::remove_all(dir);
}

TEST(StoreWriterTest, BackpressureDropsOldestAndKeepsTicksMonotonic) {
  const std::string dir = temp_dir("writer_drop");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(1, 2)),
                       StoreWriterConfig{/*queue_capacity=*/2}, &registry);
    StoreSample sample;
    sample.values.assign(2, 1.0f);
    for (std::size_t b = 0; b < 64; ++b) {
      StoreWriter::Batch batch;
      batch.node = 0;
      for (std::size_t i = 0; i < 32; ++i) {
        sample.t = b * 32 + i;
        batch.samples.push_back(sample);
      }
      writer.enqueue(std::move(batch));
    }
    // Drop-oldest keeps surviving batches in tick order, so appends never
    // violate the store's strictly-increasing contract (drain would throw).
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), 64u);
    EXPECT_EQ(writer.samples_written() / 32 + writer.batches_dropped(), 64u);
    EXPECT_EQ(writer.store().node_samples(0), writer.samples_written());
    const auto entries = registry.entries();
    bool saw_written = false;
    for (const auto& entry : entries)
      if (entry.name == "ns_store_samples_written_total") {
        saw_written = true;
        EXPECT_EQ(entry.counter->value(), writer.samples_written());
      }
    EXPECT_TRUE(saw_written);
  }
  fs::remove_all(dir);
}

TEST(StoreWriterTest, ConcurrentProducersOnDistinctNodes) {
  const std::string dir = temp_dir("writer_mt");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(4, 2)),
                       StoreWriterConfig{0}, &registry);
    std::vector<std::thread> producers;
    for (std::size_t n = 0; n < 4; ++n) {
      producers.emplace_back([&writer, n] {
        StoreSample sample;
        sample.values.assign(2, static_cast<float>(n));
        for (std::size_t b = 0; b < 20; ++b) {
          StoreWriter::Batch batch;
          batch.node = n;
          for (std::size_t i = 0; i < 25; ++i) {
            sample.t = b * 25 + i;
            batch.samples.push_back(sample);
          }
          writer.enqueue(std::move(batch));
        }
      });
    }
    for (std::thread& thread : producers) thread.join();
    writer.drain();
    EXPECT_EQ(writer.samples_written(), 4u * 20u * 25u);
    for (std::size_t n = 0; n < 4; ++n)
      EXPECT_EQ(writer.store().node_samples(n), 500u);
  }
  fs::remove_all(dir);
}

// A batch that throws mid-append (here a tick going backwards) used to
// escape the consumer thread and abort the process. It must be counted,
// leave the other nodes' batches sealed, and surface from drain().
TEST(StoreWriterTest, FailedBatchIsRethrownFromDrainAndOthersStillSeal) {
  const std::string dir = temp_dir("writer_fail");
  obs::Registry registry;
  const auto batch = [](std::size_t node, std::vector<std::size_t> ticks) {
    StoreWriter::Batch out;
    out.node = node;
    for (const std::size_t t : ticks) {
      StoreSample sample;
      sample.t = t;
      sample.values.assign(2, static_cast<float>(t));
      out.samples.push_back(sample);
    }
    return out;
  };
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(3, 2)),
                       StoreWriterConfig{0}, &registry);
    writer.enqueue(batch(0, {1, 2, 3, 4}));
    writer.enqueue(batch(1, {5, 6, 3}));
    writer.enqueue(batch(2, {1, 2, 3, 4}));
    EXPECT_THROW(writer.drain(), InvalidArgument);
    EXPECT_EQ(writer.batches_failed(), 1u);
    EXPECT_EQ(writer.samples_written(), 10u);
    EXPECT_EQ(writer.store().node_samples(0), 4u);
    EXPECT_EQ(writer.store().node_samples(1), 2u);  // ticks before the bad one
    EXPECT_EQ(writer.store().node_samples(2), 4u);
    // The error is reported once, and the writer keeps sealing.
    writer.enqueue(batch(1, {7}));
    EXPECT_NO_THROW(writer.drain());
    EXPECT_EQ(writer.store().node_samples(1), 3u);
  }
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0) + reopened.node_samples(1) +
                reopened.node_samples(2),
            11u);
  fs::remove_all(dir);
}

// A segment write that fails (here: directories squat on node 1's first
// two segment files, so opening them fails) must not lose the page being
// sealed, must not wedge the node, and must not stop drain()'s flush from
// sealing the other nodes and committing the index.
TEST(StoreWriterTest, FailedSegmentWriteKeepsThePageAndOtherNodesSeal) {
  const std::string dir = temp_dir("writer_io_fail");
  obs::Registry registry;
  TimeSeriesStore store =
      TimeSeriesStore::create(dir, small_meta(3, 2), StoreConfig{64, 64, 0});
  for (const char* name : {"seg_000000.nss", "seg_000001.nss"})
    fs::create_directories(fs::path(dir) / "node_1" / name);
  std::mt19937_64 rng(8);
  std::vector<std::vector<StoreSample>> traces;
  for (std::size_t n = 0; n < 3; ++n) traces.push_back(random_trace(rng, 40, 2));
  std::uint64_t written = 0;
  {
    StoreWriter writer(std::move(store), StoreWriterConfig{0}, &registry);
    for (std::size_t n = 0; n < 3; ++n)
      writer.enqueue(StoreWriter::Batch{n, traces[n]});
    // Node 1's first seal overflows a 64-byte page mid-batch: that batch
    // fails there. drain()'s flush then fails node 1 again (second
    // squatted file) but still seals node 2 and commits the index.
    EXPECT_THROW(writer.drain(), Error);
    EXPECT_EQ(writer.batches_failed(), 1u);
    written = writer.samples_written();
    EXPECT_GT(written, 80u);
    EXPECT_LT(written, 120u);
    {
      TimeSeriesStore disk = TimeSeriesStore::open(dir);
      EXPECT_EQ(disk.node_samples(0), 40u);
      EXPECT_EQ(disk.node_samples(1), 0u);
      EXPECT_EQ(disk.node_samples(2), 40u);
    }
    // The page survived in memory: the next drain seals it in a fresh
    // segment, and the node takes new samples after it.
    EXPECT_NO_THROW(writer.drain());
    TimeSeriesStore disk = TimeSeriesStore::open(dir);
    EXPECT_EQ(disk.node_samples(0) + disk.node_samples(1) +
                  disk.node_samples(2),
              written);
    TimeSeriesStore::Cursor cursor =
        disk.range(1, 0, traces[1].back().t + 1);
    StoreSample out;
    for (std::size_t r = 0; r < written - 80; ++r) {
      ASSERT_TRUE(cursor.next(out));
      expect_samples_equal(out, traces[1][r], "node 1 row " + std::to_string(r));
    }
    StoreSample later = traces[1].back();
    later.t += 1;
    writer.enqueue(StoreWriter::Batch{1, {later}});
    EXPECT_NO_THROW(writer.drain());
    EXPECT_EQ(writer.samples_written(), written + 1);
  }
  EXPECT_EQ(TimeSeriesStore::open(dir).node_samples(1), written - 80 + 1);
  fs::remove_all(dir);
}

// The consumer seals distinct nodes in parallel; each node must still see
// its batches in enqueue order, so every segment file — rollover and ring
// eviction included — is byte-identical to a serial append of the same
// batches.
TEST(StoreWriterTest, ParallelSealingWritesTheSerialBytes) {
  const std::size_t nodes = 16;
  const StoreConfig config{256, 4, 2};
  std::mt19937_64 rng(16);
  std::vector<StoreWriter::Batch> batches;
  {
    std::vector<std::vector<StoreSample>> traces;
    for (std::size_t n = 0; n < nodes; ++n)
      traces.push_back(random_trace(rng, 240, 5));
    // Interleaved: round r carries every node's r-th slice of 40 rows.
    for (std::size_t base = 0; base < 240; base += 40)
      for (std::size_t n = 0; n < nodes; ++n)
        batches.push_back(StoreWriter::Batch{
            n, std::vector<StoreSample>(
                   traces[n].begin() + static_cast<std::ptrdiff_t>(base),
                   traces[n].begin() + static_cast<std::ptrdiff_t>(base + 40))});
  }
  const std::string serial_dir = temp_dir("serial_seal");
  const std::string parallel_dir = temp_dir("parallel_seal");
  {
    TimeSeriesStore store =
        TimeSeriesStore::create(serial_dir, small_meta(nodes, 5), config);
    for (const StoreWriter::Batch& batch : batches)
      for (const StoreSample& sample : batch.samples)
        store.append(batch.node, sample);
    store.flush();
    EXPECT_GT(store.stats().segments_evicted, 0u);
  }
  {
    obs::Registry registry;
    StoreWriter writer(
        TimeSeriesStore::create(parallel_dir, small_meta(nodes, 5), config),
        StoreWriterConfig{0}, &registry);
    for (const StoreWriter::Batch& batch : batches) writer.enqueue(batch);
    writer.drain();
    EXPECT_EQ(writer.samples_written(), nodes * 240);
    EXPECT_GT(writer.store().stats().segments_evicted, 0u);
  }
  std::size_t files = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const fs::path node = fs::path("node_" + std::to_string(n));
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(fs::path(serial_dir) / node))
      names.push_back(entry.path().filename().string());
    std::vector<std::string> parallel_names;
    for (const auto& entry :
         fs::directory_iterator(fs::path(parallel_dir) / node))
      parallel_names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    std::sort(parallel_names.begin(), parallel_names.end());
    ASSERT_EQ(parallel_names, names) << node;
    for (const std::string& name : names) {
      EXPECT_EQ(read_file((fs::path(parallel_dir) / node / name).string()),
                read_file((fs::path(serial_dir) / node / name).string()))
          << node / name;
      ++files;
    }
  }
  EXPECT_GE(files, nodes * 2);
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

// ------------------------------------------------------------ query layer

TEST(StoreQuery, AnomalyRateAndTopKFromInBandBits) {
  const std::string dir = temp_dir("query");
  TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(3, 2));
  StoreSample sample;
  sample.values.assign(2, 1.0f);
  // node 0: 10% anomalous, node 1: 50%, node 2: none + some invalid.
  for (std::size_t t = 0; t < 100; ++t) {
    sample.t = t;
    sample.anomaly = t % 10 == 0;
    sample.valid = true;
    store.append(0, sample);
    sample.anomaly = t % 2 == 0;
    store.append(1, sample);
    sample.anomaly = false;
    sample.valid = t % 4 != 0;
    store.append(2, sample);
  }
  store.flush();
  const AnomalyRateResult node1 = store_anomaly_rate(store, 1, 0, 100);
  EXPECT_EQ(node1.samples, 100u);
  EXPECT_EQ(node1.anomalous, 50u);
  EXPECT_DOUBLE_EQ(node1.rate(), 0.5);
  const AnomalyRateResult fleet = store_anomaly_rate(store, 0, 100);
  EXPECT_EQ(fleet.samples, 300u);
  EXPECT_EQ(fleet.anomalous, 60u);
  EXPECT_EQ(fleet.invalid, 25u);
  // Sub-range aggregation: [0, 20) of node 0 holds exactly 2 anomalies.
  const AnomalyRateResult head = store_anomaly_rate(store, 0, 0, 20);
  EXPECT_EQ(head.samples, 20u);
  EXPECT_EQ(head.anomalous, 2u);
  const auto top = store_top_anomalous_nodes(store, 2, 0, 100);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_EQ(top[1].node, 0u);
  EXPECT_EQ(top[0].node_name, "node1");
  fs::remove_all(dir);
}

// The top-k query runs std::partial_sort when k < N and a full sort
// otherwise; the comparator is a strict total order (rate desc, anomalous
// count desc, node id asc), so every k must return exactly the full
// ranking's prefix — including across tied rates.
TEST(StoreQuery, TopKPartialSortMatchesFullSortPrefix) {
  const std::string dir = temp_dir("topk");
  constexpr std::size_t kNodes = 10;
  TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(kNodes, 2));
  // Anomalous-tick counts with deliberate ties: nodes 2/5/8 all at 40%,
  // nodes 1/7 at 20%, node 9 clean.
  const std::size_t anomalous[kNodes] = {10, 20, 40, 30, 50,
                                         40, 60, 20, 40, 0};
  StoreSample sample;
  sample.values.assign(2, 1.0f);
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t t = 0; t < 100; ++t) {
      sample.t = t;
      sample.anomaly = t < anomalous[n];
      store.append(n, sample);
    }
  }
  store.flush();
  const auto full = store_top_anomalous_nodes(store, kNodes, 0, 100);
  ASSERT_EQ(full.size(), kNodes);
  // Tied 40% trio must appear in node-id order.
  EXPECT_EQ(full[2].node, 2u);
  EXPECT_EQ(full[3].node, 5u);
  EXPECT_EQ(full[4].node, 8u);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              std::size_t{9}, std::size_t{20}}) {
    const auto top = store_top_anomalous_nodes(store, k, 0, 100);
    ASSERT_EQ(top.size(), std::min(k, kNodes)) << "k=" << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].node, full[i].node) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].rate.anomalous, full[i].rate.anomalous);
      EXPECT_EQ(top[i].node_name, full[i].node_name);
    }
  }
  fs::remove_all(dir);
}

TEST(StoreQuery, DatasetRoundTripWithMaskAndHoles) {
  SimDatasetConfig config = d1_sim_config(0.05, 3);
  config.missing_rate = 0.02;
  SimDataset sim = build_sim_dataset(config);
  const QualityResult quality = apply_quality_guard(sim.data);
  const std::size_t T = sim.data.num_timestamps();

  const std::string dir = temp_dir("dataset");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, store_meta_from_dataset(sim.data));
  store_append_dataset(store, sim.data, 0, T, &quality.mask,
                       &sim.data.labels);
  store.flush();

  const MtsDataset rebuilt = store_to_dataset(store, 0, T);
  rebuilt.validate();
  ASSERT_EQ(rebuilt.num_nodes(), sim.data.num_nodes());
  ASSERT_EQ(rebuilt.num_metrics(), sim.data.num_metrics());
  ASSERT_EQ(rebuilt.num_timestamps(), T);
  EXPECT_EQ(rebuilt.interval_seconds, sim.data.interval_seconds);
  for (std::size_t n = 0; n < sim.data.num_nodes(); ++n) {
    EXPECT_EQ(rebuilt.nodes[n].node_name, sim.data.nodes[n].node_name);
    ASSERT_EQ(rebuilt.jobs[n].size(), sim.data.jobs[n].size());
    for (std::size_t j = 0; j < sim.data.jobs[n].size(); ++j) {
      EXPECT_EQ(rebuilt.jobs[n][j].job_id, sim.data.jobs[n][j].job_id);
      EXPECT_EQ(rebuilt.jobs[n][j].begin, sim.data.jobs[n][j].begin);
      EXPECT_EQ(rebuilt.jobs[n][j].end, sim.data.jobs[n][j].end);
    }
    for (std::size_t m = 0; m < sim.data.num_metrics(); ++m)
      for (std::size_t t = 0; t < T; ++t) {
        const float want = sim.data.nodes[n].values[m][t];
        const float got = rebuilt.nodes[n].values[m][t];
        // All-NaN rows were skipped at import; their reconstruction is the
        // kMissingValue hole, not necessarily the same NaN payload.
        if (std::isnan(want))
          EXPECT_TRUE(std::isnan(got)) << n << "/" << m << "/" << t;
        else
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                    std::bit_cast<std::uint32_t>(want))
              << n << "/" << m << "/" << t;
      }
    // Labels rode the in-band anomaly bits.
    for (std::size_t t = 0; t < T; ++t) {
      bool row_present = false;
      for (std::size_t m = 0; m < sim.data.num_metrics(); ++m)
        if (!std::isnan(sim.data.nodes[n].values[m][t])) row_present = true;
      if (row_present) {
        EXPECT_EQ(rebuilt.labels[n][t], sim.data.labels[n][t])
            << n << "/" << t;
      }
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- serve-path equivalence

class ServeStoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.25, 7);
    sim_config.missing_rate = 0.0;  // clean stream -> exact equivalence
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    checkpoint_ = temp_dir("serve_ckpt");
    NodeSentryConfig config = fast_config();
    config.checkpoint_dir = checkpoint_;
    sentry_ = new NodeSentry(config);
    sentry_->fit(sim_->data, sim_->train_end);
  }

  static void TearDownTestSuite() {
    delete sentry_;
    delete sim_;
    sentry_ = nullptr;
    sim_ = nullptr;
    fs::remove_all(checkpoint_);
  }

  static NodeSentryConfig fast_config() {
    NodeSentryConfig config;
    config.model.d_model = 24;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.ffn_hidden = 32;
    config.train_epochs = 2;
    config.learning_rate = 3e-3f;
    config.max_tokens_per_segment = 96;
    config.train_window = 32;
    config.match_period = 60;
    config.threshold_window = 40;
    config.k_max = 6;
    config.seed = 99;
    config.incremental_updates = false;
    return config;
  }

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static std::string checkpoint_;
};

SimDataset* ServeStoreFixture::sim_ = nullptr;
NodeSentry* ServeStoreFixture::sentry_ = nullptr;
std::string ServeStoreFixture::checkpoint_;

TEST_F(ServeStoreFixture, ServeSealsBitsMatchingDetectionsAndWarmRestarts) {
  const std::string dir = temp_dir("serve_store");
  obs::Registry registry;
  TimeSeriesStore store =
      TimeSeriesStore::create(dir, store_meta_from_dataset(sim_->data));
  // Same shape as `nodesentry_serve --store-dir`: bulk-import the train
  // region, then let the engine seal the served region at flag time.
  store_append_dataset(store, sim_->data, 0, sim_->train_end);
  StoreWriter writer(std::move(store), StoreWriterConfig{}, &registry);
  ServeConfig serve_config;
  serve_config.store_writer = &writer;
  ServeEngine engine(*sentry_, serve_config);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  writer.drain();

  // Leg 1: the in-band anomaly bits equal the replay's prediction flags
  // on every served sample.
  const StoreDelta delta = compare_detections_with_store(
      rep.result.detections, writer.store(), sim_->train_end);
  EXPECT_EQ(delta.samples_compared, rep.samples_streamed);
  EXPECT_EQ(delta.flag_mismatches, 0u);
  EXPECT_EQ(delta.samples_unflagged, 0u);

  // Leg 2: the sealed serve region is the original dataset, bitwise.
  const std::size_t T = sim_->data.num_timestamps();
  const MtsDataset rebuilt = store_to_dataset(writer.store(), 0, T);
  for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n)
    for (std::size_t m = 0; m < sim_->data.num_metrics(); ++m)
      for (std::size_t t = 0; t < T; ++t)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rebuilt.nodes[n].values[m][t]),
                  std::bit_cast<std::uint32_t>(
                      sim_->data.nodes[n].values[m][t]))
            << n << "/" << m << "/" << t;

  // Leg 3: warm restart from segments == warm restart from CSV, bitwise.
  NodeSentry csv_sentry(fast_config());
  csv_sentry.restore(sim_->data, sim_->train_end, checkpoint_);
  ServeEngine csv_engine(csv_sentry);
  const ReplayReport csv_rep =
      serve_replay(csv_engine, sim_->data, sim_->train_end);

  NodeSentry store_sentry(fast_config());
  store_sentry.restore(rebuilt, sim_->train_end, checkpoint_);
  ServeEngine store_engine(store_sentry);
  const ReplayReport store_rep =
      serve_replay(store_engine, rebuilt, sim_->train_end);

  ASSERT_EQ(store_rep.result.detections.size(),
            csv_rep.result.detections.size());
  for (std::size_t n = 0; n < csv_rep.result.detections.size(); ++n) {
    const auto& a = csv_rep.result.detections[n];
    const auto& b = store_rep.result.detections[n];
    ASSERT_EQ(a.scores.size(), b.scores.size()) << "node " << n;
    for (std::size_t t = 0; t < a.scores.size(); ++t)
      ASSERT_EQ(a.scores[t], b.scores[t]) << "node " << n << " t " << t;
    ASSERT_EQ(a.predictions, b.predictions) << "node " << n;
  }

  // Leg 4: the store's aggregate equals the flags' aggregate.
  const AnomalyRateResult rate = store_anomaly_rate(
      writer.store(), sim_->train_end, writer.store().end_tick());
  std::size_t flagged = 0;
  for (const NodeDetection& det : rep.result.detections)
    for (std::size_t t = sim_->train_end; t < det.predictions.size(); ++t)
      flagged += det.predictions[t];
  EXPECT_EQ(rate.anomalous, flagged);
}

// finalize() hands the writer one batch per node in one burst, so a queue
// bound below the node count used to drop whole node histories; the
// session raises it to the store's node count.
TEST_F(ServeStoreFixture, SessionKeepsEveryNodeBatchWithATinyWriterQueue) {
  ASSERT_GE(sim_->data.num_nodes(), 3u);
  const std::string dir = temp_dir("session_store");
  {
    obs::Registry registry;
    ServeSessionConfig config;
    config.engine.registry = &registry;
    config.store.dir = dir;
    config.store.writer.queue_capacity = 1;
    ServeSession session(*sentry_, sim_->data, sim_->train_end, config);
    const ReplayReport rep = session.run();
    StoreWriter& writer = *session.store_writer();
    writer.drain();
    EXPECT_EQ(writer.batches_dropped(), 0u);
    const StoreDelta delta = compare_detections_with_store(
        rep.result.detections, writer.store(), sim_->train_end);
    EXPECT_EQ(delta.samples_compared, rep.samples_streamed);
    EXPECT_EQ(delta.flag_mismatches, 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ns
