#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) busy += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) busy += run_hi - run_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - busy);
  }
  return self;
}

std::uint64_t Tracer::open(std::string name, std::string input) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = std::move(name);
  span.input = std::move(input);
  span.start = now();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double t = now();
  // Close everything opened inside `id` too (an exception may have skipped
  // an inner close).
  while (!open_.empty()) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end = t;
    if (span.id == id) break;
  }
}

void Tracer::record(std::string name, double start, double end,
                    std::size_t calls) {
  if (!enabled_) return;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.calls = calls;
  spans_.push_back(std::move(span));
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                 "\"calls\": %zu",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.start, s.end, self[i], s.calls);
    if (!s.input.empty())
      std::fprintf(f, ", \"input\": \"%s\"", s.input.c_str());
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
