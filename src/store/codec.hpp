// Sample codec for the embedded time-series store (DESIGN.md §13).
//
// One page holds one node's consecutive samples, bit-packed in the Gorilla
// style: ticks are delta-of-delta coded (a regular 15 s cadence costs one
// bit per row), each raw metric value is XOR'd against the previous row's
// value of the same metric (identical values cost one bit; small drifts
// cost their meaningful mantissa bits), and every row carries its anomaly
// bit and validity bit *in-band* — the netdata discipline: anomaly rates
// fall out of ordinary aggregation over the samples with zero extra
// storage, and the bits are immutable history ("what was detectable
// THEN"). Encoding is bit-preserving: decode(encode(x)) reproduces every
// float bit pattern exactly, NaN payloads included, so a dataset rebuilt
// from the store replays bitwise identically to the CSV original.
//
// Pages are independently decodable (the first row of a page is stored in
// full; all per-metric XOR state resets), so a time-range query can seek
// to any page without touching its predecessors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ns {

/// One stored sample: every raw metric of one node at one tick, plus the
/// in-band bits. `values` is the raw metric space (NaN = missing cell);
/// `valid` is the §quality summary bit (0 = the quality/stream mask voided
/// part of this row); `anomaly` is the §3.5 detection flag at write time.
struct StoreSample {
  std::size_t t = 0;
  std::int64_t job_id = 0;
  bool anomaly = false;
  bool valid = true;
  std::vector<float> values;
};

// ------------------------------------------------------------- bit streams

/// LSB-first bit packer. Bits land in the low bit of the current byte
/// first; multi-bit writes emit the low bit of `value` first. A write of up
/// to 57 bits is one unaligned little-endian 64-bit load, OR and store
/// (wider writes take two), so the buffer keeps a zeroed word past the last
/// written bit.
class BitWriter {
 public:
  void write_bit(std::uint32_t bit);
  void write_bits(std::uint64_t value, std::size_t count);  // count <= 64
  /// Unsigned LEB128-style varint inside the bit stream (7 data bits per
  /// continuation group).
  void write_varint(std::uint64_t value);

  std::size_t bit_count() const { return bits_; }
  std::size_t byte_count() const { return (bits_ + 7) / 8; }
  /// The packed bytes; valid until the next write, truncate() or clear().
  std::span<const std::uint8_t> bytes() const {
    return {buf_.data(), byte_count()};
  }
  /// Truncates back to a previously captured bit_count().
  void truncate(std::size_t bit_position);
  /// Empties the writer; its buffer serves the next stream.
  void clear();

 private:
  std::vector<std::uint8_t> buf_;  ///< byte_count() bytes, then zeroed slack
  std::size_t bits_ = 0;
};

/// Mirror of BitWriter: a read of up to 57 bits is one unaligned 64-bit
/// load (the stream's last bytes are gathered bytewise, never read past).
/// Reads past the end throw ns::ParseError.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  std::uint32_t read_bit();
  std::uint64_t read_bits(std::size_t count);
  std::uint64_t read_varint();
  std::size_t bits_consumed() const { return pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Zigzag mapping so small negative deltas stay small varints.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ------------------------------------------------------------ page codec

/// Builds one page's bit-packed payload. append() returns false (leaving
/// the page untouched) once adding the sample would push the payload past
/// the byte capacity — seal the page and start a new one. A page always
/// accepts at least one sample, whatever the capacity.
class PageBuilder {
 public:
  PageBuilder(std::size_t num_metrics, std::size_t capacity_bytes);

  bool append(const StoreSample& sample);

  bool empty() const { return samples_ == 0; }
  std::size_t samples() const { return samples_; }
  std::size_t num_metrics() const { return num_metrics_; }
  std::size_t first_tick() const { return first_t_; }
  std::size_t last_tick() const { return prev_t_; }
  std::size_t payload_bytes() const { return writer_.byte_count(); }
  /// The page's payload so far; valid until the next append() or reset().
  std::span<const std::uint8_t> payload() const { return writer_.bytes(); }

  /// Empties the builder for the next page, keeping its buffers.
  void reset();
  /// Returns a copy of the payload and resets the builder.
  std::vector<std::uint8_t> finish();

 private:
  struct MetricState {
    std::uint32_t prev_bits = 0;
    std::uint8_t leading = 0;
    std::uint8_t meaningful = 0;  ///< 0 = no reusable window yet
  };

  void encode_row(const StoreSample& sample);

  std::size_t num_metrics_;
  std::size_t capacity_bytes_;
  std::size_t max_row_bits_;  ///< worst-case size of a row after the first
  BitWriter writer_;
  std::size_t samples_ = 0;
  std::size_t first_t_ = 0;
  std::size_t prev_t_ = 0;
  std::int64_t prev_delta_ = 0;
  std::int64_t prev_job_ = 0;
  std::vector<MetricState> metrics_;
  std::vector<MetricState> saved_metrics_;  ///< rollback copy, reused
};

/// Decodes a page payload produced by PageBuilder. The metric count and
/// sample count come from the page frame header (store.hpp).
class PageReader {
 public:
  PageReader(std::span<const std::uint8_t> payload, std::size_t num_metrics,
             std::size_t sample_count);

  /// Fills the next sample; false once `sample_count` rows were read.
  /// Throws ns::ParseError on a malformed payload.
  bool next(StoreSample& out);

 private:
  BitReader reader_;
  std::size_t num_metrics_;
  std::size_t remaining_;
  bool first_ = true;
  std::size_t prev_t_ = 0;
  std::int64_t prev_delta_ = 0;
  std::int64_t prev_job_ = 0;
  std::vector<std::uint32_t> prev_bits_;
  std::vector<std::uint8_t> leading_;
  std::vector<std::uint8_t> meaningful_;
};

}  // namespace ns
