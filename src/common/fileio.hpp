// Crash-safe file primitives shared by checkpoint and dataset writers.
//
// A "framed" file is a versioned header (magic, version, payload size,
// CRC32) followed by the payload. Writers serialize to memory, frame, and
// publish atomically (tmp file + fsync + rename), so readers only ever see
// either the previous complete file or the new complete file. Readers
// verify the frame and raise ns::ParseError on any truncation, corruption
// or version mismatch — a torn or bit-flipped checkpoint is rejected, never
// silently half-loaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ns {

/// CRC-32 (IEEE 802.3, the zlib polynomial) of a byte range. `seed` allows
/// incremental computation over multiple chunks: pass the previous result.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Writes `payload` to `path` atomically: the bytes land in `<path>.tmp`,
/// are flushed and fsync'd, then renamed over `path`. Throws ns::Error on
/// any I/O failure (the tmp file is removed on failure).
void write_file_atomic(const std::string& path, std::string_view payload);

/// Frame header layout (little-endian, 20 bytes):
///   u32 magic  = kFrameMagic
///   u32 version
///   u64 payload_size
///   u32 payload_crc32
inline constexpr std::uint32_t kFrameMagic = 0x4E534350;  // "NSCP"
inline constexpr std::uint32_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;

/// Atomically writes `payload` wrapped in a verification frame.
void write_framed_file(const std::string& path, std::string_view payload);

/// Reads a framed file and returns the verified payload. Throws
/// ns::ParseError when the file is missing, truncated, has a bad magic or
/// unsupported version, or fails the CRC check.
std::string read_framed_file(const std::string& path);

/// Reads a whole (unframed) file into a string. Throws ns::ParseError when
/// the file cannot be opened.
std::string read_file(const std::string& path);

// Checkpoint payload streams (the cluster library and the generation
// registry). A float block is a u32 count followed by that many floats. A
// read past the end of the payload throws ns::ParseError
// "<context>: truncated <what>".

void write_floats(std::ostream& os, std::span<const float> xs);

std::vector<float> read_floats(std::istream& is, const char* context,
                               const char* what);

void read_bytes(std::istream& is, void* out, std::size_t size,
                const char* context, const char* what);

template <typename T>
void read_pod(std::istream& is, T& out, const char* context,
              const char* what) {
  read_bytes(is, &out, sizeof(out), context, what);
}

}  // namespace ns
