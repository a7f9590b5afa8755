#include "store/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace ns {

namespace {

// Both streams move whole little-endian 64-bit words, whatever the host's
// byte order, so the bytes on disk match a bit-at-a-time packer.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  if constexpr (std::endian::native == std::endian::big)
    word = __builtin_bswap64(word);
  return word;
}

void store_le64(std::uint8_t* p, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big)
    word = __builtin_bswap64(word);
  std::memcpy(p, &word, 8);
}

std::uint64_t low_bits(std::uint64_t value, std::size_t count) {
  return count >= 64 ? value : value & ((std::uint64_t{1} << count) - 1);
}

/// Widest field one word holds at any bit offset (up to 7) into its first
/// byte; wider fields move as two halves.
constexpr std::size_t kWordFieldBits = 57;

}  // namespace

// ------------------------------------------------------------- BitWriter

void BitWriter::write_bit(std::uint32_t bit) { write_bits(bit & 1u, 1); }

void BitWriter::write_bits(std::uint64_t value, std::size_t count) {
  NS_REQUIRE(count <= 64, "BitWriter: count " << count << " > 64");
  if (count > kWordFieldBits) {
    write_bits(value, 32);
    write_bits(value >> 32, count - 32);
    return;
  }
  const std::size_t byte = bits_ >> 3;
  if (byte + 8 > buf_.size())
    buf_.resize(std::max(byte + 8, 2 * buf_.size()), 0);
  std::uint8_t* word = buf_.data() + byte;
  store_le64(word, load_le64(word) | low_bits(value, count) << (bits_ & 7));
  bits_ += count;
}

void BitWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80u) {
    write_bits((value & 0x7Fu) | 0x80u, 8);
    value >>= 7;
  }
  write_bits(value, 8);
}

void BitWriter::truncate(std::size_t bit_position) {
  NS_REQUIRE(bit_position <= bits_,
             "BitWriter: truncate past end (" << bit_position << " > "
                                              << bits_ << ")");
  // Zero everything past the mark so re-appending ORs into zeros.
  const std::size_t keep = (bit_position + 7) / 8;
  std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(keep),
            buf_.begin() + static_cast<std::ptrdiff_t>(byte_count()), 0);
  if (bit_position & 7)
    buf_[keep - 1] &=
        static_cast<std::uint8_t>((1u << (bit_position & 7)) - 1u);
  bits_ = bit_position;
}

void BitWriter::clear() {
  // Re-zero what the stream used, so the next one ORs into zeros.
  std::fill_n(buf_.begin(), byte_count(), 0);
  bits_ = 0;
}

// ------------------------------------------------------------- BitReader

std::uint32_t BitReader::read_bit() {
  const std::size_t byte = pos_ >> 3;
  if (byte >= buf_.size())
    throw ParseError("store page: bit stream truncated");
  const std::uint32_t bit = (buf_[byte] >> (pos_ & 7)) & 1u;
  ++pos_;
  return bit;
}

std::uint64_t BitReader::read_bits(std::size_t count) {
  NS_REQUIRE(count <= 64, "BitReader: count " << count << " > 64");
  if (count > buf_.size() * 8 - pos_)
    throw ParseError("store page: bit stream truncated");
  if (count > kWordFieldBits) {
    const std::uint64_t low = read_bits(32);
    return low | read_bits(count - 32) << 32;
  }
  const std::size_t byte = pos_ >> 3;
  std::uint64_t word = 0;
  if (byte + 8 <= buf_.size()) {
    word = load_le64(buf_.data() + byte);
  } else {
    // The stream's last bytes: gather them, never load past the end.
    for (std::size_t i = byte; i < buf_.size(); ++i)
      word |= std::uint64_t{buf_[i]} << (8 * (i - byte));
  }
  const std::uint64_t value = low_bits(word >> (pos_ & 7), count);
  pos_ += count;
  return value;
}

std::uint64_t BitReader::read_varint() {
  std::uint64_t value = 0;
  std::size_t shift = 0;
  while (true) {
    if (shift >= 64) throw ParseError("store page: varint overflow");
    const std::uint64_t group = read_bits(8);
    value |= (group & 0x7Fu) << shift;
    if ((group & 0x80u) == 0) break;
    shift += 7;
  }
  return value;
}

// ------------------------------------------------------------ PageBuilder

namespace {

/// Delta-of-delta buckets: '0' zero; '10'+7b; '110'+12b; '1110'+20b;
/// '1111'+64b raw zigzag. A steady cadence hits the 1-bit bucket every row.
void write_dod(BitWriter& w, std::int64_t dod) {
  if (dod == 0) {
    w.write_bit(0);
  } else if (dod >= -63 && dod < 64) {
    w.write_bits(0b01u, 2);  // LSB-first: reads back as '1' then '0'
    w.write_bits(static_cast<std::uint64_t>(dod + 63) & 0x7Fu, 7);
  } else if (dod >= -2047 && dod < 2048) {
    w.write_bits(0b011u, 3);
    w.write_bits(static_cast<std::uint64_t>(dod + 2047) & 0xFFFu, 12);
  } else if (dod >= -(1 << 19) && dod < (1 << 19)) {
    w.write_bits(0b0111u, 4);
    w.write_bits(static_cast<std::uint64_t>(dod + (1 << 19)) & 0xFFFFFu, 20);
  } else {
    w.write_bits(0b1111u, 4);
    w.write_bits(zigzag_encode(dod), 64);
  }
}

std::int64_t read_dod(BitReader& r) {
  if (r.read_bit() == 0) return 0;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(7)) - 63;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(12)) - 2047;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(20)) - (1 << 19);
  return zigzag_decode(r.read_bits(64));
}

}  // namespace

PageBuilder::PageBuilder(std::size_t num_metrics, std::size_t capacity_bytes)
    : num_metrics_(num_metrics),
      capacity_bytes_(capacity_bytes),
      // A row after the first at its largest: the dod escape (4 + 64), a
      // job change as a ten-group varint (1 + 80), the two in-band bits,
      // and a new XOR window for every metric ('11' + 5 + 5 + 32).
      max_row_bits_(68 + 81 + 2 + 44 * num_metrics),
      metrics_(num_metrics) {
  NS_REQUIRE(num_metrics_ > 0, "PageBuilder: zero metrics");
  NS_REQUIRE(capacity_bytes_ > 0, "PageBuilder: zero capacity");
}

bool PageBuilder::append(const StoreSample& sample) {
  NS_REQUIRE(sample.values.size() == num_metrics_,
             "PageBuilder: sample has " << sample.values.size()
                                        << " metrics, page wants "
                                        << num_metrics_);
  NS_REQUIRE(samples_ == 0 || sample.t > prev_t_,
             "PageBuilder: ticks must be strictly increasing ("
                 << sample.t << " after " << prev_t_ << ")");
  // Snapshot so an over-capacity row can be rolled back exactly. Only a
  // row whose worst case could overflow the page copies the per-metric
  // state, into a buffer reused across rows.
  const bool may_overflow =
      samples_ > 0 &&
      writer_.bit_count() + max_row_bits_ > capacity_bytes_ * 8;
  const std::size_t mark = writer_.bit_count();
  const std::size_t saved_prev_t = prev_t_;
  const std::int64_t saved_prev_delta = prev_delta_;
  const std::int64_t saved_prev_job = prev_job_;
  if (may_overflow) saved_metrics_ = metrics_;

  encode_row(sample);

  if (may_overflow && writer_.byte_count() > capacity_bytes_) {
    writer_.truncate(mark);
    prev_t_ = saved_prev_t;
    prev_delta_ = saved_prev_delta;
    prev_job_ = saved_prev_job;
    metrics_.swap(saved_metrics_);
    return false;
  }
  if (samples_ == 0) first_t_ = sample.t;
  ++samples_;
  return true;
}

void PageBuilder::encode_row(const StoreSample& sample) {
  if (samples_ == 0) {
    // First row stored in full: the page is independently decodable.
    writer_.write_varint(sample.t);
    writer_.write_varint(zigzag_encode(sample.job_id));
    writer_.write_bit(sample.anomaly ? 1 : 0);
    writer_.write_bit(sample.valid ? 1 : 0);
    for (std::size_t m = 0; m < num_metrics_; ++m) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(sample.values[m]);
      writer_.write_bits(bits, 32);
      metrics_[m].prev_bits = bits;
      metrics_[m].meaningful = 0;
    }
    prev_t_ = sample.t;
    prev_delta_ = 0;
    prev_job_ = sample.job_id;
    return;
  }
  const std::int64_t delta =
      static_cast<std::int64_t>(sample.t) - static_cast<std::int64_t>(prev_t_);
  write_dod(writer_, delta - prev_delta_);
  prev_delta_ = delta;
  prev_t_ = sample.t;
  if (sample.job_id == prev_job_) {
    writer_.write_bit(0);
  } else {
    writer_.write_bit(1);
    writer_.write_varint(zigzag_encode(sample.job_id - prev_job_));
    prev_job_ = sample.job_id;
  }
  writer_.write_bit(sample.anomaly ? 1 : 0);
  writer_.write_bit(sample.valid ? 1 : 0);
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    MetricState& st = metrics_[m];
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(sample.values[m]);
    const std::uint32_t x = bits ^ st.prev_bits;
    st.prev_bits = bits;
    if (x == 0) {
      writer_.write_bit(0);
      continue;
    }
    const std::uint32_t lead = static_cast<std::uint32_t>(std::countl_zero(x));
    const std::uint32_t trail = static_cast<std::uint32_t>(std::countr_zero(x));
    const std::uint32_t mlen = 32 - lead - trail;
    const std::uint32_t prev_trail =
        st.meaningful > 0 ? 32u - st.leading - st.meaningful : 0;
    if (st.meaningful > 0 && lead >= st.leading && trail >= prev_trail) {
      // Fits the previous window: '10' + the window's meaningful bits, as
      // one field.
      writer_.write_bits(0b01u | std::uint64_t{x >> prev_trail} << 2,
                         2 + st.meaningful);
    } else {
      // New window: '11' + 5b leading + 5b (len-1) + the meaningful bits,
      // as one field.
      writer_.write_bits(0b11u | lead << 2 | (mlen - 1) << 7 |
                             std::uint64_t{x >> trail} << 12,
                         12 + mlen);
      st.leading = static_cast<std::uint8_t>(lead);
      st.meaningful = static_cast<std::uint8_t>(mlen);
    }
  }
}

void PageBuilder::reset() {
  writer_.clear();
  samples_ = 0;
  first_t_ = 0;
  prev_t_ = 0;
  prev_delta_ = 0;
  prev_job_ = 0;
  for (MetricState& st : metrics_) st = MetricState{};
}

std::vector<std::uint8_t> PageBuilder::finish() {
  const std::span<const std::uint8_t> bytes = payload();
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  reset();
  return out;
}

// ------------------------------------------------------------- PageReader

PageReader::PageReader(std::span<const std::uint8_t> payload,
                       std::size_t num_metrics, std::size_t sample_count)
    : reader_(payload),
      num_metrics_(num_metrics),
      remaining_(sample_count),
      prev_bits_(num_metrics, 0),
      leading_(num_metrics, 0),
      meaningful_(num_metrics, 0) {
  NS_REQUIRE(num_metrics_ > 0, "PageReader: zero metrics");
}

bool PageReader::next(StoreSample& out) {
  if (remaining_ == 0) return false;
  --remaining_;
  out.values.resize(num_metrics_);
  if (first_) {
    first_ = false;
    prev_t_ = static_cast<std::size_t>(reader_.read_varint());
    prev_job_ = zigzag_decode(reader_.read_varint());
    out.anomaly = reader_.read_bit() != 0;
    out.valid = reader_.read_bit() != 0;
    for (std::size_t m = 0; m < num_metrics_; ++m) {
      prev_bits_[m] = static_cast<std::uint32_t>(reader_.read_bits(32));
      out.values[m] = std::bit_cast<float>(prev_bits_[m]);
    }
    out.t = prev_t_;
    out.job_id = prev_job_;
    return true;
  }
  const std::int64_t dod = read_dod(reader_);
  prev_delta_ += dod;
  const std::int64_t t =
      static_cast<std::int64_t>(prev_t_) + prev_delta_;
  if (t <= static_cast<std::int64_t>(prev_t_))
    throw ParseError("store page: non-increasing tick");
  prev_t_ = static_cast<std::size_t>(t);
  if (reader_.read_bit() != 0)
    prev_job_ += zigzag_decode(reader_.read_varint());
  out.anomaly = reader_.read_bit() != 0;
  out.valid = reader_.read_bit() != 0;
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    std::uint32_t x = 0;
    if (reader_.read_bit() != 0) {
      if (reader_.read_bit() == 0) {
        // '10': previous window.
        if (meaningful_[m] == 0)
          throw ParseError("store page: window reuse before a window");
        const std::uint32_t prev_trail = 32u - leading_[m] - meaningful_[m];
        x = static_cast<std::uint32_t>(reader_.read_bits(meaningful_[m]))
            << prev_trail;
      } else {
        // '11': explicit window.
        const std::uint32_t lead =
            static_cast<std::uint32_t>(reader_.read_bits(5));
        const std::uint32_t mlen =
            static_cast<std::uint32_t>(reader_.read_bits(5)) + 1;
        if (lead + mlen > 32)
          throw ParseError("store page: bad XOR window");
        const std::uint32_t trail = 32 - lead - mlen;
        x = static_cast<std::uint32_t>(reader_.read_bits(mlen)) << trail;
        leading_[m] = static_cast<std::uint8_t>(lead);
        meaningful_[m] = static_cast<std::uint8_t>(mlen);
      }
    }
    prev_bits_[m] ^= x;
    out.values[m] = std::bit_cast<float>(prev_bits_[m]);
  }
  out.t = prev_t_;
  out.job_id = prev_job_;
  return true;
}

}  // namespace ns
