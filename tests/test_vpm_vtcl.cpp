#include <gtest/gtest.h>

#include "casestudy/usi.hpp"
#include "transform/uml_importer.hpp"
#include "util/error.hpp"
#include "vpm/vtcl.hpp"

namespace upsim::vpm {
namespace {

TEST(Vtcl, ParsesMinimalPattern) {
  const Pattern p = parse_pattern("pattern anything(x) = { entity(x); }");
  EXPECT_EQ(p.name(), "anything");
  EXPECT_EQ(p.variables(), (std::vector<std::string>{"x"}));
}

TEST(Vtcl, ParsesAllConstraintKinds) {
  const Pattern p = parse_pattern(R"(
    // every constraint form in one pattern
    pattern kitchen_sink(a, b) = {
      entity(a);
      type(a, mm.Device);
      below(a, 'models.net');
      name(a, "s1");
      value(b, edge);
      relation(a, link, b);
      neq(a, b);
    })");
  EXPECT_EQ(p.variables().size(), 2u);
}

TEST(Vtcl, ParsedPatternMatchesLikeHandBuilt) {
  const auto cs = casestudy::make_usi_case_study();
  ModelSpace space;
  transform::import_class_model(space, *cs.classes);
  transform::import_object_model(space, *cs.infrastructure);

  const Pattern parsed = parse_pattern(R"(
    pattern printer_uplinks(printer, sw) = {
      type(printer, models.usi_classes.classes.Printer);
      type(sw, models.usi_classes.classes.HP2650);
      relation(printer, link, sw);
    })");
  Pattern built("printer_uplinks");
  built.type_of("printer", "models.usi_classes.classes.Printer")
      .type_of("sw", "models.usi_classes.classes.HP2650")
      .related("printer", "link", "sw");
  EXPECT_EQ(parsed.count(space), built.count(space));
  EXPECT_EQ(parsed.count(space), 3u);
}

TEST(Vtcl, NamedAndValueConstraintsWork) {
  ModelSpace space;
  const EntityId e = space.ensure_path("models.net.t1");
  space.set_value(e, "edge");
  const Pattern p = parse_pattern(R"(
    pattern find_t1(x) = {
      below(x, 'models.net');
      name(x, t1);
      value(x, edge);
    })");
  const auto matches = p.match(space);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].at("x"), e);
}

TEST(Vtcl, ParsesMultiplePatterns) {
  const auto patterns = parse_patterns(R"(
    pattern first(x) = { entity(x); }
    pattern second(a, b) = { relation(a, link, b); }
  )");
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].name(), "first");
  EXPECT_EQ(patterns[1].name(), "second");
  EXPECT_TRUE(parse_patterns("  // only comments\n").empty());
}

TEST(Vtcl, DuplicatePatternNamesRejected) {
  EXPECT_THROW((void)parse_patterns(R"(
    pattern p(x) = { entity(x); }
    pattern p(y) = { entity(y); }
  )"),
               ModelError);
}

struct SyntaxErrorCase {
  const char* label;
  const char* source;
};

void PrintTo(const SyntaxErrorCase& c, std::ostream* os) {
  *os << c.label << ' ' << ::testing::PrintToString(std::string(c.source));
}

class VtclSyntaxErrorTest : public ::testing::TestWithParam<SyntaxErrorCase> {};

TEST_P(VtclSyntaxErrorTest, Rejected) {
  EXPECT_THROW((void)parse_pattern(GetParam().source), ParseError)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, VtclSyntaxErrorTest,
    ::testing::Values(
        SyntaxErrorCase{"empty", ""},
        SyntaxErrorCase{"missing_keyword", "battern p(x) = { entity(x); }"},
        SyntaxErrorCase{"missing_name", "pattern (x) = { entity(x); }"},
        SyntaxErrorCase{"missing_paren", "pattern p x) = { entity(x); }"},
        SyntaxErrorCase{"missing_equals", "pattern p(x) { entity(x); }"},
        SyntaxErrorCase{"missing_brace", "pattern p(x) = entity(x);"},
        SyntaxErrorCase{"missing_semicolon", "pattern p(x) = { entity(x) }"},
        SyntaxErrorCase{"unknown_constraint",
                        "pattern p(x) = { frobnicate(x); }"},
        SyntaxErrorCase{"unterminated_quote",
                        "pattern p(x) = { below(x, 'models); }"},
        SyntaxErrorCase{"trailing_garbage",
                        "pattern p(x) = { entity(x); } extra"},
        SyntaxErrorCase{"bad_character", "pattern p(x) = { entity(x); } @"}),
    [](const ::testing::TestParamInfo<SyntaxErrorCase>& info) {
      return info.param.label;
    });

TEST(Vtcl, SemanticErrorsRejected) {
  // Undeclared variable.
  EXPECT_THROW((void)parse_pattern("pattern p(x) = { entity(y); }"),
               ModelError);
  // Duplicate parameter.
  EXPECT_THROW((void)parse_pattern("pattern p(x, x) = { entity(x); }"),
               ModelError);
  // Unconstrained parameter.
  EXPECT_THROW((void)parse_pattern("pattern p(x, y) = { entity(x); }"),
               ModelError);
}

TEST(Vtcl, ErrorsCarryPosition) {
  try {
    (void)parse_pattern("pattern p(x) = {\n  entity(x);\n  oops(x);\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

}  // namespace
}  // namespace upsim::vpm
