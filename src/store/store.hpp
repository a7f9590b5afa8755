// Embedded time-series store (DESIGN.md §13): per-node segment files of
// CRC-framed, bit-packed pages (store/codec.hpp) with in-band anomaly and
// validity bits, ring retention, and an index-written-last commit
// discipline matching the checkpoint format.
//
// On-disk layout:
//   <dir>/index.bin            CRC-framed meta (written LAST on flush)
//   <dir>/node_<i>/seg_<seq>.nss   append-only page frames
//
// Crash consistency: every page lands as a self-validating frame (magic,
// header CRC, payload CRC); the index commits through the atomic framed
// writer only after the segment bytes are flushed. A reader therefore
// recovers the longest valid frame prefix of every segment file — a torn
// tail or bit flip ends that file's history instead of throwing past it —
// and a store whose index never landed is simply not a store yet.
// History is immutable: samples are appended in strictly increasing tick
// order per node and never rewritten; after a recovery, appends resume in
// a fresh segment file so repaired history is never overwritten.
//
// Threading: appends to distinct nodes may run concurrently — each node's
// page builder, segment file, catalog, read cache and stats live in its
// own shard. Appends to one node, flush() and queries are exclusive:
// nothing else may touch the store while they run (store/writer.hpp is
// the async front that keeps to this). flush() publishes appended samples
// for querying.
//
// Write failures: a segment file that cannot be opened, written or
// flushed is abandoned (recovery keeps its valid prefix), the node's open
// page stays in memory, and the next seal of that node retries it in a
// fresh segment file. flush() seals every node and commits the index
// before it rethrows the first such failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "ts/mts.hpp"

namespace ns {

inline constexpr std::uint32_t kPageFrameMagic = 0x4750534E;  // "NSPG"
inline constexpr std::uint32_t kStoreIndexVersion = 1;
inline constexpr std::size_t kPageFrameHeaderSize = 40;

struct StoreConfig {
  /// Payload capacity per page; a page seals when the next sample would
  /// overflow it (one oversized row still gets its own page).
  std::size_t page_bytes = 4096;
  /// Pages per segment file; the file rolls over past this.
  std::size_t segment_pages = 64;
  /// Per-node ring retention: keep at most this many segment files, oldest
  /// deleted when a new one starts. 0 = unlimited.
  std::size_t retain_segments = 0;
};

/// Immutable dataset-level metadata carried by the index, enough to
/// rebuild an MtsDataset bit-identically (store/query.hpp): raw metric
/// schema, node names, cadence, and (optionally) the scheduler's job span
/// table — job ids also ride every sample in-band, but the explicit table
/// preserves the exact span boundaries segmentation keys on.
struct StoreMeta {
  std::vector<MetricMeta> metrics;
  std::vector<std::string> node_names;
  double interval_seconds = 15.0;
  std::vector<std::vector<JobSpan>> jobs;  ///< optional; [] = derive from rows
};

class TimeSeriesStore {
 public:
  /// One sealed page of one node: where it lives and what it covers.
  struct PageEntry {
    std::size_t seq = 0;         ///< segment file sequence number
    std::uint64_t offset = 0;    ///< frame offset within the segment file
    std::uint32_t payload_bytes = 0;
    std::uint32_t samples = 0;
    std::uint64_t first_t = 0;
    std::uint64_t last_t = 0;
  };

  /// Creates a fresh store in `directory` (created if missing; an existing
  /// index there is superseded). The store is not visible to open() until
  /// the first flush() commits the index.
  static TimeSeriesStore create(const std::string& directory, StoreMeta meta,
                                StoreConfig config = {});

  /// Opens an existing store: loads the index, then scans every segment
  /// file and recovers the longest valid frame prefix (torn tails and
  /// corrupt frames end that file's history — never an exception). Throws
  /// ns::ParseError when the index is missing or corrupt.
  static TimeSeriesStore open(const std::string& directory);

  TimeSeriesStore(TimeSeriesStore&&) = default;
  TimeSeriesStore& operator=(TimeSeriesStore&&) = default;

  /// Appends one sample of `node`; ticks must be strictly increasing per
  /// node. sample.values.size() must equal num_metrics().
  void append(std::size_t node, const StoreSample& sample);

  /// Seals open pages, flushes segment bytes, then writes the index —
  /// last, through the atomic framed writer. After flush() every appended
  /// sample is durable and queryable.
  void flush();

  /// One mmap'd (or, when mmap is unavailable, heap-loaded) segment file.
  /// Shared so cursors pin the mapping they are decoding out of.
  struct SegmentData;

  /// Streams the sealed samples of `node` with first_t <= t < end_t in
  /// tick order. Requires flush() for samples still in open pages. The
  /// cursor pins the mmap'd segments it reads; it must not outlive the
  /// store.
  class Cursor {
   public:
    /// Decodes the next sample of the range into `out`, reusing its
    /// buffers; false at the end of the range, after which `out` is
    /// unspecified.
    bool next(StoreSample& out);

   private:
    friend class TimeSeriesStore;
    const TimeSeriesStore* store_ = nullptr;
    std::size_t node_ = 0;
    std::uint64_t begin_t_ = 0;
    std::uint64_t end_t_ = 0;
    std::size_t page_index_ = 0;
    std::shared_ptr<const SegmentData> segment_;
    std::unique_ptr<PageReader> reader_;
  };

  Cursor range(std::size_t node, std::size_t first_t, std::size_t end_t) const;

  const StoreMeta& meta() const { return meta_; }
  const StoreConfig& config() const { return config_; }
  const std::string& directory() const { return dir_; }
  std::size_t num_nodes() const { return meta_.node_names.size(); }
  std::size_t num_metrics() const { return meta_.metrics.size(); }

  /// Sealed samples / pages / segment files of one node.
  std::size_t node_samples(std::size_t node) const;
  std::size_t node_pages(std::size_t node) const;
  std::size_t node_segments(std::size_t node) const;
  const std::vector<PageEntry>& node_catalog(std::size_t node) const;
  /// One past the newest sealed tick across all nodes (0 when empty).
  std::size_t end_tick() const;
  /// Oldest sealed tick of `node` after ring eviction (0 when empty).
  std::size_t node_first_tick(std::size_t node) const;
  /// Total sealed bytes on disk (frame headers + payloads), all nodes.
  std::uint64_t sealed_bytes() const;

  struct Stats {
    std::uint64_t samples_appended = 0;
    std::uint64_t pages_sealed = 0;
    std::uint64_t segments_started = 0;
    std::uint64_t segments_evicted = 0;
    std::uint64_t bytes_written = 0;
  };
  /// Summed over the nodes' shards.
  Stats stats() const;

 private:
  struct Shard {
    std::unique_ptr<PageBuilder> builder;
    std::vector<PageEntry> pages;        ///< sealed, (seq, offset) order
    std::size_t first_seq = 0;
    std::size_t next_seq = 0;            ///< segment currently appended
    std::size_t pages_in_current = 0;
    std::uint64_t current_offset = 0;
    std::unique_ptr<std::ofstream> out;  ///< open segment file
    bool any_sealed = false;
    std::uint64_t last_t = 0;            ///< newest tick (sealed or open)
    bool any_t = false;
    Stats stats;
    /// Mapped segment files keyed by seq. Mutable so const queries can
    /// fill it; invalidated on flush() (a later flush may have grown the
    /// file past the cached mapping).
    mutable std::map<std::size_t, std::shared_ptr<const SegmentData>>
        read_cache;
  };

  TimeSeriesStore() = default;

  std::string node_dir(std::size_t node) const;
  std::string segment_path(std::size_t node, std::size_t seq) const;
  void seal_page(std::size_t node);
  [[noreturn]] void abandon_segment(std::size_t node);
  void evict_segments(std::size_t node);
  void recover_node(std::size_t node);
  std::shared_ptr<const SegmentData> load_segment(std::size_t node,
                                                  std::size_t seq) const;

  std::string dir_;
  StoreMeta meta_;
  StoreConfig config_;
  std::vector<Shard> shards_;
};

}  // namespace ns
