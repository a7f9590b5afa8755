#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace ns {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Csv, RoundTripSimple) {
  const std::string path = temp_path("ns_csv_simple.csv");
  write_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
  std::remove(path.c_str());
}

TEST(Csv, QuotingRoundTrip) {
  const std::string path = temp_path("ns_csv_quoted.csv");
  const std::vector<std::vector<std::string>> rows{
      {"hello, world", "quote\"inside", "line\nbreak"}};
  write_csv(path, {}, rows);
  const auto back = read_csv(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], rows[0]);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/nope.csv"), ParseError);
}

TEST(Csv, UnterminatedQuoteThrows) {
  const std::string path = temp_path("ns_csv_bad.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("\"open quote,2\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_csv(path), ParseError);
  std::remove(path.c_str());
}

TEST(Csv, FormatDouble) {
  EXPECT_EQ(format_double(0.8765, 3), "0.876");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
}

TEST(Table, RendersAligned) {
  TablePrinter table({"Method", "F1"});
  table.add_row({"NodeSentry", "0.876"});
  table.add_row({"X", "0.1"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Method"), std::string::npos);
  EXPECT_NE(out.find("NodeSentry"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Header row and each data row end with newline.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, AlignsCellsByDisplayWidth) {
  // "±" is two bytes but one terminal column.
  TablePrinter table({"Method", "F1"});
  table.add_row({"0.5 ± 0.1", "x"});
  table.add_row({"0.5 + 0.1", "y"});
  const std::string out = table.render();
  const auto column_of = [&](char mark) {
    const std::size_t at = out.find(mark);
    const std::size_t line = out.rfind('\n', at) + 1;
    return std::count_if(out.begin() + line, out.begin() + at,
                         [](char c) { return (c & 0xC0) != 0x80; });
  };
  EXPECT_EQ(column_of('x'), column_of('y'));
}

}  // namespace
}  // namespace ns
