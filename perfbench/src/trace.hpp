// In-memory span recorder for the benchmark's traced runs. Spans are taken
// in the benchmark's own code, around the public calls it makes into each
// layer; nothing inside the library is instrumented. A span's self time is
// its duration minus the part of it covered by its children.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::string name;
  double start = 0.0;  ///< seconds since the tracer started
  double end = 0.0;
  /// Calls folded into this span (ingest() calls of one delivered tick).
  std::size_t calls = 1;
  /// Layer-pass spans: "replayed" (inputs taken from the run) or "shaped"
  /// (inputs built to the run's shape because the run has none).
  std::string input;
};

/// Self time of every span (same order as `spans`): duration minus the
/// union of its children's intervals, clipped to the span.
std::vector<double> self_times(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// Opens a span under the innermost open one; 0 when disabled.
  std::uint64_t open(std::string name, std::string input = {});
  void close(std::uint64_t id);
  /// Records an already finished span under the innermost open one.
  void record(std::string name, double start, double end, std::size_t calls);

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string input = {})
        : tracer_(tracer),
          id_(tracer.open(std::move(name), std::move(input))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

 private:
  using clock = std::chrono::steady_clock;
  bool enabled_;
  clock::time_point epoch_ = clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
};

}  // namespace perfbench
