#include "common/fileio.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace ns {
namespace {

std::array<std::uint32_t, 256> build_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t parse_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

std::uint64_t parse_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = build_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_file_atomic(const std::string& path, std::string_view payload) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("write_file_atomic: cannot open " + tmp);
  const bool wrote =
      payload.empty() ||
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  bool flushed = std::fflush(f) == 0;
#ifndef _WIN32
  // Durability barrier: the rename below must not be reordered before the
  // data blocks reach the device, or a crash can publish a hollow file.
  if (flushed) flushed = ::fsync(::fileno(f)) == 0;
#endif
  std::fclose(f);
  if (!wrote || !flushed) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw Error("write_file_atomic: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("write_file_atomic: rename to " + path + " failed");
  }
}

void write_framed_file(const std::string& path, std::string_view payload) {
  std::string framed;
  framed.reserve(kFrameHeaderSize + payload.size());
  append_u32(framed, kFrameMagic);
  append_u32(framed, kFrameVersion);
  append_u64(framed, payload.size());
  append_u32(framed, crc32(payload));
  framed.append(payload.data(), payload.size());
  write_file_atomic(path, framed);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw ParseError("cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

std::string read_framed_file(const std::string& path) {
  std::string raw = read_file(path);
  if (raw.size() < kFrameHeaderSize)
    throw ParseError("framed file " + path + ": truncated header (" +
                     std::to_string(raw.size()) + " bytes)");
  const std::uint32_t magic = parse_u32(raw.data());
  if (magic != kFrameMagic)
    throw ParseError("framed file " + path + ": bad magic");
  const std::uint32_t version = parse_u32(raw.data() + 4);
  if (version != kFrameVersion)
    throw ParseError("framed file " + path + ": unsupported version " +
                     std::to_string(version));
  const std::uint64_t size = parse_u64(raw.data() + 8);
  if (raw.size() - kFrameHeaderSize != size)
    throw ParseError("framed file " + path + ": payload size mismatch (header " +
                     std::to_string(size) + ", actual " +
                     std::to_string(raw.size() - kFrameHeaderSize) + ")");
  const std::uint32_t expected_crc = parse_u32(raw.data() + 16);
  const std::uint32_t actual_crc =
      crc32(raw.data() + kFrameHeaderSize, size);
  if (expected_crc != actual_crc)
    throw ParseError("framed file " + path + ": CRC mismatch");
  return raw.substr(kFrameHeaderSize);
}

void write_floats(std::ostream& os, std::span<const float> xs) {
  const std::uint32_t n = static_cast<std::uint32_t>(xs.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(xs.data()),
           static_cast<std::streamsize>(xs.size() * sizeof(float)));
}

void read_bytes(std::istream& is, void* out, std::size_t size,
                const char* context, const char* what) {
  is.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
  if (!is.good())
    throw ParseError(std::string(context) + ": truncated " + what);
}

std::vector<float> read_floats(std::istream& is, const char* context,
                               const char* what) {
  std::uint32_t n = 0;
  read_pod(is, n, context, what);
  std::vector<float> xs(n);
  read_bytes(is, xs.data(), n * sizeof(float), context, what);
  return xs;
}

}  // namespace ns
