#include "store/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/log.hpp"

namespace ns {

namespace fs = std::filesystem;

// --------------------------------------------------------- mapped segments

/// Read-only view of one segment file. mmap when possible (segment files
/// are designed to be mmap-able: frames are self-delimiting, so a mapping
/// is directly scannable); falls back to a heap read when mmap fails
/// (e.g. an empty file or an exotic filesystem).
struct TimeSeriesStore::SegmentData {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  void* map_base = nullptr;  ///< non-null when mmap'd
  std::vector<std::uint8_t> heap;

  ~SegmentData() {
    if (map_base != nullptr) ::munmap(map_base, size);
  }

  static std::shared_ptr<SegmentData> load(const std::string& path) {
    auto seg = std::make_shared<SegmentData>();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return seg;  // empty view: treated as zero frames
    struct ::stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        seg->map_base = base;
        seg->data = static_cast<const std::uint8_t*>(base);
        seg->size = size;
      } else {
        seg->heap.resize(size);
        std::size_t off = 0;
        while (off < size) {
          const ::ssize_t got = ::read(fd, seg->heap.data() + off, size - off);
          if (got <= 0) break;
          off += static_cast<std::size_t>(got);
        }
        seg->heap.resize(off);
        seg->data = seg->heap.data();
        seg->size = seg->heap.size();
      }
    }
    ::close(fd);
    return seg;
  }
};

namespace {

// ------------------------------------------------------------ frame codec

/// Little-endian page frame header (kPageFrameHeaderSize bytes):
///   u32 magic, u32 header_crc (over the 32 bytes after it),
///   u32 payload_crc, u32 payload_bytes, u32 sample_count, u32 num_metrics,
///   u64 first_t, u64 last_t
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

struct FrameInfo {
  std::uint32_t payload_bytes = 0;
  std::uint32_t samples = 0;
  std::uint32_t num_metrics = 0;
  std::uint64_t first_t = 0;
  std::uint64_t last_t = 0;
};

std::array<std::uint8_t, kPageFrameHeaderSize> encode_frame_header(
    const FrameInfo& info, std::uint32_t payload_crc) {
  std::array<std::uint8_t, kPageFrameHeaderSize> h{};
  put_u32(h.data() + 0, kPageFrameMagic);
  put_u32(h.data() + 8, payload_crc);
  put_u32(h.data() + 12, info.payload_bytes);
  put_u32(h.data() + 16, info.samples);
  put_u32(h.data() + 20, info.num_metrics);
  put_u64(h.data() + 24, info.first_t);
  put_u64(h.data() + 32, info.last_t);
  put_u32(h.data() + 4,
          crc32(h.data() + 8, kPageFrameHeaderSize - 8));
  return h;
}

/// Validates the frame at `offset`; false ends the valid prefix.
bool decode_frame_header(const std::uint8_t* data, std::size_t size,
                         std::size_t offset, FrameInfo* out) {
  if (offset + kPageFrameHeaderSize > size) return false;
  const std::uint8_t* h = data + offset;
  if (get_u32(h) != kPageFrameMagic) return false;
  if (get_u32(h + 4) != crc32(h + 8, kPageFrameHeaderSize - 8)) return false;
  out->payload_bytes = get_u32(h + 12);
  out->samples = get_u32(h + 16);
  out->num_metrics = get_u32(h + 20);
  out->first_t = get_u64(h + 24);
  out->last_t = get_u64(h + 32);
  if (out->samples == 0) return false;
  if (offset + kPageFrameHeaderSize + out->payload_bytes > size) return false;
  if (get_u32(h + 8) != crc32(h + kPageFrameHeaderSize, out->payload_bytes))
    return false;
  return true;
}

// ------------------------------------------------------------ index codec

void put_string(std::string& out, const std::string& s) {
  std::uint32_t len = static_cast<std::uint32_t>(s.size());
  out.append(reinterpret_cast<const char*>(&len), 4);
  out.append(s);
}

void put_scalar64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

void put_scalar32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}

class IndexParser {
 public:
  explicit IndexParser(const std::string& payload) : payload_(payload) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, payload_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, payload_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s = payload_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  void need(std::size_t n) {
    if (pos_ + n > payload_.size())
      throw ParseError("store index: truncated payload");
  }
  const std::string& payload_;
  std::size_t pos_ = 0;
};

std::string index_path(const std::string& dir) {
  return (fs::path(dir) / "index.bin").string();
}

std::string serialize_index(const StoreMeta& meta, const StoreConfig& config) {
  std::string out;
  put_scalar32(out, kStoreIndexVersion);
  put_scalar32(out, static_cast<std::uint32_t>(meta.metrics.size()));
  put_scalar32(out, static_cast<std::uint32_t>(meta.node_names.size()));
  put_scalar64(out, std::bit_cast<std::uint64_t>(meta.interval_seconds));
  put_scalar64(out, config.page_bytes);
  put_scalar64(out, config.segment_pages);
  put_scalar64(out, config.retain_segments);
  for (const MetricMeta& m : meta.metrics) {
    put_string(out, m.name);
    put_string(out, m.semantic_group);
    put_scalar32(out, static_cast<std::uint32_t>(m.category));
    put_scalar32(out, static_cast<std::uint32_t>(m.unit_id));
  }
  for (const std::string& name : meta.node_names) put_string(out, name);
  put_scalar32(out, meta.jobs.empty() ? 0u : 1u);
  if (!meta.jobs.empty()) {
    NS_REQUIRE(meta.jobs.size() == meta.node_names.size(),
               "store: jobs table has " << meta.jobs.size() << " nodes, meta "
                                        << meta.node_names.size());
    for (const std::vector<JobSpan>& spans : meta.jobs) {
      put_scalar32(out, static_cast<std::uint32_t>(spans.size()));
      for (const JobSpan& span : spans) {
        put_scalar64(out, static_cast<std::uint64_t>(span.job_id));
        put_scalar64(out, span.begin);
        put_scalar64(out, span.end);
      }
    }
  }
  return out;
}

void parse_index(const std::string& payload, StoreMeta* meta,
                 StoreConfig* config) {
  IndexParser p(payload);
  const std::uint32_t version = p.u32();
  if (version != kStoreIndexVersion)
    throw ParseError("store index: unsupported version " +
                     std::to_string(version));
  const std::uint32_t num_metrics = p.u32();
  const std::uint32_t num_nodes = p.u32();
  meta->interval_seconds = std::bit_cast<double>(p.u64());
  config->page_bytes = p.u64();
  config->segment_pages = p.u64();
  config->retain_segments = p.u64();
  meta->metrics.resize(num_metrics);
  for (MetricMeta& m : meta->metrics) {
    m.name = p.str();
    m.semantic_group = p.str();
    m.category = static_cast<MetricCategory>(p.u32());
    m.unit_id = static_cast<int>(p.u32());
  }
  meta->node_names.resize(num_nodes);
  for (std::string& name : meta->node_names) name = p.str();
  if (p.u32() != 0) {
    meta->jobs.resize(num_nodes);
    for (std::vector<JobSpan>& spans : meta->jobs) {
      spans.resize(p.u32());
      for (JobSpan& span : spans) {
        span.job_id = static_cast<std::int64_t>(p.u64());
        span.begin = p.u64();
        span.end = p.u64();
      }
    }
  }
}

}  // namespace

// --------------------------------------------------------- TimeSeriesStore

TimeSeriesStore TimeSeriesStore::create(const std::string& directory,
                                        StoreMeta meta, StoreConfig config) {
  NS_REQUIRE(!meta.metrics.empty(), "store: no metrics in meta");
  NS_REQUIRE(!meta.node_names.empty(), "store: no nodes in meta");
  NS_REQUIRE(config.page_bytes >= 64, "store: page_bytes must be >= 64");
  NS_REQUIRE(config.segment_pages > 0, "store: segment_pages must be > 0");
  TimeSeriesStore store;
  store.dir_ = directory;
  store.meta_ = std::move(meta);
  store.config_ = config;
  store.shards_.resize(store.meta_.node_names.size());
  fs::create_directories(directory);
  for (std::size_t n = 0; n < store.shards_.size(); ++n) {
    fs::create_directories(store.node_dir(n));
    // Stale segment files from a superseded store must not leak into the
    // new history.
    for (const auto& entry : fs::directory_iterator(store.node_dir(n)))
      fs::remove(entry.path());
  }
  fs::remove(index_path(directory));
  return store;
}

TimeSeriesStore TimeSeriesStore::open(const std::string& directory) {
  TimeSeriesStore store;
  store.dir_ = directory;
  // The index committed last, so its presence is the commit point; a
  // missing or corrupt index means the store never became visible.
  const std::string payload = read_framed_file(index_path(directory));
  parse_index(payload, &store.meta_, &store.config_);
  store.shards_.resize(store.meta_.node_names.size());
  for (std::size_t n = 0; n < store.shards_.size(); ++n) store.recover_node(n);
  return store;
}

void TimeSeriesStore::recover_node(std::size_t node) {
  Shard& shard = shards_[node];
  std::vector<std::size_t> seqs;
  if (fs::is_directory(node_dir(node))) {
    for (const auto& entry : fs::directory_iterator(node_dir(node))) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 8 && name.rfind("seg_", 0) == 0 &&
          name.substr(name.size() - 4) == ".nss")
        seqs.push_back(static_cast<std::size_t>(
            std::strtoull(name.c_str() + 4, nullptr, 10)));
    }
  }
  std::sort(seqs.begin(), seqs.end());
  for (const std::size_t seq : seqs) {
    const std::shared_ptr<const SegmentData> seg = load_segment(node, seq);
    std::size_t offset = 0;
    FrameInfo info;
    while (decode_frame_header(seg->data, seg->size, offset, &info)) {
      if (info.num_metrics != num_metrics()) break;  // foreign frame
      PageEntry page;
      page.seq = seq;
      page.offset = offset;
      page.payload_bytes = info.payload_bytes;
      page.samples = info.samples;
      page.first_t = info.first_t;
      page.last_t = info.last_t;
      shard.pages.push_back(page);
      shard.any_sealed = true;
      if (!shard.any_t || info.last_t > shard.last_t) {
        shard.last_t = info.last_t;
        shard.any_t = true;
      }
      offset += kPageFrameHeaderSize + info.payload_bytes;
    }
  }
  if (!seqs.empty()) {
    shard.first_seq = seqs.front();
    // Appends resume in a fresh segment: a recovered file may carry a torn
    // tail beyond its valid prefix, and appending after it would orphan
    // the new frames behind the garbage.
    shard.next_seq = seqs.back() + 1;
  }
}

std::string TimeSeriesStore::node_dir(std::size_t node) const {
  return (fs::path(dir_) / ("node_" + std::to_string(node))).string();
}

std::string TimeSeriesStore::segment_path(std::size_t node,
                                          std::size_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg_%06zu.nss", seq);
  return (fs::path(node_dir(node)) / name).string();
}

void TimeSeriesStore::append(std::size_t node, const StoreSample& sample) {
  NS_REQUIRE(node < shards_.size(),
             "store: node " << node << " out of range");
  NS_REQUIRE(sample.values.size() == num_metrics(),
             "store: sample has " << sample.values.size()
                                  << " metrics, store wants "
                                  << num_metrics());
  Shard& shard = shards_[node];
  NS_REQUIRE(!shard.any_t || sample.t > shard.last_t,
             "store: non-increasing tick " << sample.t << " for node "
                                           << node << " (last "
                                           << shard.last_t << ")");
  if (!shard.builder)
    shard.builder =
        std::make_unique<PageBuilder>(num_metrics(), config_.page_bytes);
  if (!shard.builder->append(sample)) {
    seal_page(node);
    NS_CHECK(shard.builder->append(sample),
             "store: sample rejected by a fresh page");
  }
  shard.last_t = sample.t;
  shard.any_t = true;
  ++shard.stats.samples_appended;
}

void TimeSeriesStore::seal_page(std::size_t node) {
  Shard& shard = shards_[node];
  if (!shard.builder || shard.builder->empty()) return;
  // Written straight from the builder, which resets only once the frame
  // is out: a failed write keeps the page for the next seal.
  const std::span<const std::uint8_t> payload = shard.builder->payload();
  FrameInfo info;
  info.payload_bytes = static_cast<std::uint32_t>(payload.size());
  info.samples = static_cast<std::uint32_t>(shard.builder->samples());
  info.num_metrics = static_cast<std::uint32_t>(num_metrics());
  info.first_t = shard.builder->first_tick();
  info.last_t = shard.builder->last_tick();
  const std::uint32_t payload_crc = crc32(payload.data(), payload.size());
  const auto header = encode_frame_header(info, payload_crc);

  if (!shard.out) {
    if (shard.pages_in_current == 0) {
      evict_segments(node);
      ++shard.stats.segments_started;
    }
    shard.out = std::make_unique<std::ofstream>(
        segment_path(node, shard.next_seq),
        std::ios::binary | std::ios::app);
  }
  shard.out->write(reinterpret_cast<const char*>(header.data()),
                   static_cast<std::streamsize>(header.size()));
  shard.out->write(reinterpret_cast<const char*>(payload.data()),
                   static_cast<std::streamsize>(payload.size()));
  const bool rollover = shard.pages_in_current + 1 >= config_.segment_pages;
  if (rollover) shard.out->flush();
  if (!shard.out->good()) abandon_segment(node);
  PageEntry page;
  page.seq = shard.next_seq;
  page.offset = shard.current_offset;
  page.payload_bytes = info.payload_bytes;
  page.samples = info.samples;
  page.first_t = info.first_t;
  page.last_t = info.last_t;
  shard.pages.push_back(page);
  shard.any_sealed = true;
  shard.current_offset += kPageFrameHeaderSize + payload.size();
  ++shard.pages_in_current;
  ++shard.stats.pages_sealed;
  shard.stats.bytes_written += kPageFrameHeaderSize + payload.size();
  shard.builder->reset();
  if (rollover) {
    shard.out.reset();
    ++shard.next_seq;
    shard.pages_in_current = 0;
    shard.current_offset = 0;
  }
}

void TimeSeriesStore::abandon_segment(std::size_t node) {
  // The file may now end in a torn frame: appending after it would orphan
  // later frames, so the node moves on to a fresh segment file.
  Shard& shard = shards_[node];
  std::ostringstream os;
  os << "store: cannot write segment " << segment_path(node, shard.next_seq);
  shard.out.reset();
  ++shard.next_seq;
  shard.pages_in_current = 0;
  shard.current_offset = 0;
  throw Error(os.str());
}

void TimeSeriesStore::evict_segments(std::size_t node) {
  if (config_.retain_segments == 0) return;
  Shard& shard = shards_[node];
  // Starting segment next_seq: keep it plus the newest retain_segments - 1.
  while (shard.next_seq - shard.first_seq + 1 > config_.retain_segments) {
    std::error_code ec;
    fs::remove(segment_path(node, shard.first_seq), ec);
    std::erase_if(shard.pages, [&](const PageEntry& p) {
      return p.seq == shard.first_seq;
    });
    shard.read_cache.erase(shard.first_seq);
    ++shard.first_seq;
    ++shard.stats.segments_evicted;
  }
}

void TimeSeriesStore::flush() {
  // One node's failed write neither stops the other nodes' seals nor the
  // index commit; the first failure is rethrown after both.
  std::exception_ptr error;
  for (std::size_t n = 0; n < shards_.size(); ++n) {
    Shard& shard = shards_[n];
    try {
      seal_page(n);
      if (shard.out && !shard.out->flush()) abandon_segment(n);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    // The cache may hold mappings taken before this flush grew the files.
    shard.read_cache.clear();
  }
  // Index last: segment bytes are on disk before the commit point moves.
  write_framed_file(index_path(dir_), serialize_index(meta_, config_));
  if (error) std::rethrow_exception(error);
}

TimeSeriesStore::Stats TimeSeriesStore::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    total.samples_appended += shard.stats.samples_appended;
    total.pages_sealed += shard.stats.pages_sealed;
    total.segments_started += shard.stats.segments_started;
    total.segments_evicted += shard.stats.segments_evicted;
    total.bytes_written += shard.stats.bytes_written;
  }
  return total;
}

// ----------------------------------------------------------------- reads

std::shared_ptr<const TimeSeriesStore::SegmentData>
TimeSeriesStore::load_segment(std::size_t node, std::size_t seq) const {
  auto& cache = shards_[node].read_cache;
  auto it = cache.find(seq);
  if (it != cache.end()) return it->second;
  std::shared_ptr<const SegmentData> seg =
      SegmentData::load(segment_path(node, seq));
  cache.emplace(seq, seg);
  return seg;
}

TimeSeriesStore::Cursor TimeSeriesStore::range(std::size_t node,
                                               std::size_t first_t,
                                               std::size_t end_t) const {
  NS_REQUIRE(node < shards_.size(),
             "store: node " << node << " out of range");
  Cursor cursor;
  cursor.store_ = this;
  cursor.node_ = node;
  cursor.begin_t_ = first_t;
  cursor.end_t_ = end_t;
  const std::vector<PageEntry>& pages = shards_[node].pages;
  // Pages are in (seq, offset) order == tick order; skip whole pages that
  // end before the range.
  std::size_t i = 0;
  while (i < pages.size() && pages[i].last_t < first_t) ++i;
  cursor.page_index_ = i;
  return cursor;
}

bool TimeSeriesStore::Cursor::next(StoreSample& out) {
  if (store_ == nullptr) return false;
  const std::vector<PageEntry>& pages = store_->shards_[node_].pages;
  while (true) {
    if (reader_) {
      while (reader_->next(out)) {
        if (out.t < begin_t_) continue;
        if (out.t >= end_t_) {
          reader_.reset();
          segment_.reset();
          store_ = nullptr;
          return false;
        }
        return true;
      }
      reader_.reset();
      segment_.reset();
    }
    if (page_index_ >= pages.size()) {
      store_ = nullptr;
      return false;
    }
    const PageEntry& page = pages[page_index_++];
    if (page.first_t >= end_t_) {
      store_ = nullptr;
      return false;
    }
    segment_ = store_->load_segment(node_, page.seq);
    NS_REQUIRE(page.offset + kPageFrameHeaderSize + page.payload_bytes <=
                   segment_->size,
               "store: cataloged page beyond segment size (node "
                   << node_ << " seq " << page.seq << ")");
    reader_ = std::make_unique<PageReader>(
        std::span<const std::uint8_t>(
            segment_->data + page.offset + kPageFrameHeaderSize,
            page.payload_bytes),
        store_->num_metrics(), page.samples);
  }
}

std::size_t TimeSeriesStore::node_samples(std::size_t node) const {
  NS_REQUIRE(node < shards_.size(), "store: node out of range");
  std::size_t total = 0;
  for (const PageEntry& page : shards_[node].pages) total += page.samples;
  return total;
}

std::size_t TimeSeriesStore::node_pages(std::size_t node) const {
  NS_REQUIRE(node < shards_.size(), "store: node out of range");
  return shards_[node].pages.size();
}

std::size_t TimeSeriesStore::node_segments(std::size_t node) const {
  NS_REQUIRE(node < shards_.size(), "store: node out of range");
  const Shard& shard = shards_[node];
  if (!shard.any_sealed) return 0;
  std::size_t count = 0;
  std::size_t prev_seq = 0;
  bool any = false;
  for (const PageEntry& page : shard.pages) {
    if (!any || page.seq != prev_seq) {
      ++count;
      prev_seq = page.seq;
      any = true;
    }
  }
  return count;
}

const std::vector<TimeSeriesStore::PageEntry>& TimeSeriesStore::node_catalog(
    std::size_t node) const {
  NS_REQUIRE(node < shards_.size(), "store: node out of range");
  return shards_[node].pages;
}

std::size_t TimeSeriesStore::end_tick() const {
  std::size_t end = 0;
  for (const Shard& shard : shards_)
    if (!shard.pages.empty())
      end = std::max(end,
                     static_cast<std::size_t>(shard.pages.back().last_t) + 1);
  return end;
}

std::size_t TimeSeriesStore::node_first_tick(std::size_t node) const {
  NS_REQUIRE(node < shards_.size(), "store: node out of range");
  const std::vector<PageEntry>& pages = shards_[node].pages;
  return pages.empty() ? 0 : static_cast<std::size_t>(pages.front().first_t);
}

std::uint64_t TimeSeriesStore::sealed_bytes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_)
    for (const PageEntry& page : shard.pages)
      total += kPageFrameHeaderSize + page.payload_bytes;
  return total;
}

}  // namespace ns
