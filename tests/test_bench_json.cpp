// The benches' JSON writer: every document it renders parses back, even
// with a non-finite result or a control character in a string.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/json_parse.hpp"

namespace tpa::bench {
namespace {

TEST(BenchJson, NonFiniteAndControlCharactersParseBack) {
  std::vector<BenchResult> results(2);
  results[0].name = "gap\tserial";
  results[0].value = std::numeric_limits<double>::quiet_NaN();
  results[0].unit = "s";
  results[0].extra = {{"speedup", std::numeric_limits<double>::infinity()},
                      {"trials", 5.0}};
  results[1].name = "epoch";
  results[1].value = 0.125;
  results[1].unit = "ms";
  const BenchMeta meta{{"host\nname", "a\x01z"}};

  const std::string text = to_json("suite\"x", results, meta);
  const obs::JsonValue doc = obs::parse_json(text);
  EXPECT_EQ(doc.str_or("suite", ""), "suite\"x");
  const obs::JsonValue* parsed_meta = doc.find("meta");
  ASSERT_NE(parsed_meta, nullptr);
  EXPECT_EQ(parsed_meta->str_or("host\nname", ""), "a\x01z");

  const obs::JsonValue* rows = doc.find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array.size(), 2u);
  const obs::JsonValue& first = rows->array[0];
  EXPECT_EQ(first.str_or("name", ""), "gap\tserial");
  ASSERT_NE(first.find("value"), nullptr);
  EXPECT_TRUE(first.find("value")->is_null());
  ASSERT_NE(first.find("speedup"), nullptr);
  EXPECT_TRUE(first.find("speedup")->is_null());
  EXPECT_EQ(first.num_or("trials", 0.0), 5.0);
  EXPECT_EQ(rows->array[1].num_or("value", 0.0), 0.125);
  EXPECT_EQ(rows->array[1].str_or("unit", ""), "ms");

  // The layout stays: "{", suite, meta, "results": [, one line per result,
  // "]", "}".
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u + results.size());
}

}  // namespace
}  // namespace tpa::bench
