#include "io/table.hpp"

#include <algorithm>
#include <sstream>

namespace ns {
namespace {

// Terminal columns a cell takes: UTF-8 continuation bytes take none, so a
// cell holding "±" lines up with one that does not.
std::size_t display_width(const std::string& cell) {
  return static_cast<std::size_t>(std::count_if(
      cell.begin(), cell.end(), [](char c) { return (c & 0xC0) != 0x80; }));
}

}  // namespace

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = display_width(header_[c]);
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], display_width(row[c]));

  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << cell << std::string(widths[c] - display_width(cell) + 2, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace ns
