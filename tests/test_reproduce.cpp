// The pure half of `michican_cli reproduce`: band checks, verdicts, the
// claims JSON and the table, on hand-built reports (CTest row cli_reproduce
// runs the full command; CI gates its exit code).
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "json_reader.hpp"
#include "runner/reproduce.hpp"
#include "runner/schemas.hpp"

namespace mcan {
namespace {

using runner::Claim;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Claim claim(std::string id, double lo, double hi, double measured,
            std::string note = {}) {
  return Claim{std::move(id), "Sec. X", "a quantity", "ms", 1.0, lo, hi,
               measured,      std::move(note)};
}

runner::ClaimsReport three_verdicts() {
  return {7,
          {0, 32},
          {claim("a.ok", 1.0, 2.0, 1.5), claim("b.bad", 1.0, 2.0, 2.5),
           claim("c.dev", 3.0, kInf, 4.0, "known")}};
}

TEST(Claims, BandsAreInclusiveAtBothEdgesAndMayBeUnbounded) {
  EXPECT_TRUE(claim("x", 1.0, 2.0, 1.0).in_band());
  EXPECT_TRUE(claim("x", 1.0, 2.0, 2.0).in_band());
  EXPECT_FALSE(claim("x", 1.0, 2.0, 0.999).in_band());
  EXPECT_FALSE(claim("x", 1.0, 2.0, 2.001).in_band());
  EXPECT_TRUE(claim("x", 0.0, 0.0, 0.0).in_band());
  EXPECT_FALSE(claim("x", 0.0, 0.0, 1e-12).in_band());
  EXPECT_TRUE(claim("x", 5000, kInf, 1e300).in_band());
  EXPECT_FALSE(claim("x", 5000, kInf, 4999).in_band());
  EXPECT_TRUE(claim("x", -kInf, 1.0, -1e300).in_band());
  EXPECT_FALSE(claim("x", -kInf, 1.0, 1.5).in_band());
  // A measurement that could not be taken holds no band.
  EXPECT_FALSE(claim("x", -kInf, kInf, kNaN).in_band());
}

TEST(Claims, VerdictFollowsTheBandThenTheNote) {
  const auto r = three_verdicts();
  EXPECT_EQ(r.claims[0].verdict(), "reproduced");
  EXPECT_EQ(r.claims[1].verdict(), "failed");
  EXPECT_EQ(r.claims[2].verdict(), "deviation");
  // A note never rescues a measurement outside its band.
  EXPECT_EQ(claim("x", 1.0, 2.0, 3.0, "known").verdict(), "failed");
}

TEST(Claims, FailedCountsOnlyFailedClaims) {
  auto r = three_verdicts();
  EXPECT_EQ(r.failed(), 1u);
  r.claims[2].measured = 2.0;  // the deviation leaves its band too
  EXPECT_EQ(r.failed(), 2u);
  r.claims.clear();
  EXPECT_EQ(r.failed(), 0u);
}

TEST(Claims, JsonCarriesSchemaVerdictsNullBoundsAndOptionalNotes) {
  auto r = three_verdicts();
  r.claims[1].lo = -kInf;
  r.claims[1].measured = kNaN;
  const auto text = runner::to_json(r);
  const auto doc = test::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->get_string(), runner::kClaimsSchema);
  EXPECT_EQ(
      text,
      R"({"schema":"michican.claims.v1","base_seed":7,)"
      R"("seeds":{"begin":0,"end":32},"failed":1,"claims":[)"
      R"({"id":"a.ok","section":"Sec. X","quantity":"a quantity",)"
      R"("unit":"ms","paper":1,"lo":1,"hi":2,"measured":1.5,)"
      R"("verdict":"reproduced"},)"
      R"({"id":"b.bad","section":"Sec. X","quantity":"a quantity",)"
      R"("unit":"ms","paper":1,"lo":null,"hi":2,"measured":null,)"
      R"("verdict":"failed"},)"
      R"({"id":"c.dev","section":"Sec. X","quantity":"a quantity",)"
      R"("unit":"ms","paper":1,"lo":3,"hi":null,"measured":4,)"
      R"("verdict":"deviation","note":"known"}]})"
      "\n");
}

TEST(Claims, TableMarksFailedAndDeviationRows) {
  const auto text = runner::format_table(three_verdicts());
  const auto line_of = [&text](const std::string& id) {
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) {
      if (line.find("| " + id + " ") != std::string::npos) return line;
    }
    return std::string{};
  };
  EXPECT_NE(line_of("a.ok").find("reproduced"), std::string::npos);
  EXPECT_NE(line_of("b.bad").find("FAILED"), std::string::npos);
  EXPECT_NE(line_of("c.dev").find("deviation *"), std::string::npos);
  EXPECT_NE(line_of("c.dev").find(">= 3"), std::string::npos);
  EXPECT_NE(text.find("* c.dev: known\n"), std::string::npos);
  EXPECT_NE(text.find("3 claims: 1 reproduced, 1 deviation, 1 failed"),
            std::string::npos);
}

}  // namespace
}  // namespace mcan
