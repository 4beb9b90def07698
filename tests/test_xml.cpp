#include <gtest/gtest.h>

#include "util/error.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "util/rng.hpp"

namespace upsim::xml {
namespace {

TEST(XmlParser, ParsesTheFigure3Fragment) {
  const auto doc = parse(R"(<atomicservice id="atomic_service_1">
      <requester id="component_a"></requester>
      <provider id="component_b"></provider>
    </atomicservice>)");
  const Element& root = doc.root();
  EXPECT_EQ(root.name(), "atomicservice");
  EXPECT_EQ(root.required_attribute("id"), "atomic_service_1");
  ASSERT_NE(root.first_child("requester"), nullptr);
  EXPECT_EQ(root.required_child("requester").required_attribute("id"),
            "component_a");
  EXPECT_EQ(root.required_child("provider").required_attribute("id"),
            "component_b");
}

TEST(XmlParser, SelfClosingAndDeclaration) {
  const auto doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<root><empty/><other a='1'/></root>");
  EXPECT_EQ(doc.root().children().size(), 2u);
  EXPECT_EQ(doc.root().children()[1]->required_attribute("a"), "1");
}

TEST(XmlParser, TextAndEntities) {
  const auto doc = parse("<m>a &amp; b &lt;c&gt; &quot;d&quot; &apos;e&apos; &#65;</m>");
  EXPECT_EQ(doc.root().trimmed_text(), "a & b <c> \"d\" 'e' A");
}

TEST(XmlParser, CdataIsVerbatim) {
  const auto doc = parse("<m><![CDATA[<not-a-tag> & raw]]></m>");
  EXPECT_EQ(doc.root().trimmed_text(), "<not-a-tag> & raw");
}

TEST(XmlParser, CommentsAreSkippedEverywhere) {
  const auto doc = parse(
      "<!-- head --><root><!-- inner --><child/><!-- tail --></root>"
      "<!-- post -->");
  EXPECT_EQ(doc.root().children().size(), 1u);
}

TEST(XmlParser, MixedContentPreservesChildOrder) {
  const auto doc = parse("<r>pre<a/>mid<b/>post</r>");
  EXPECT_EQ(doc.root().children().size(), 2u);
  EXPECT_EQ(doc.root().children()[0]->name(), "a");
  EXPECT_EQ(doc.root().children()[1]->name(), "b");
  EXPECT_EQ(doc.root().trimmed_text(), "premidpost");
}

TEST(XmlParser, AttributeQuotingVariants) {
  const auto doc = parse(R"(<r a="double" b='single' c="with 'quotes'"/>)");
  EXPECT_EQ(doc.root().required_attribute("a"), "double");
  EXPECT_EQ(doc.root().required_attribute("b"), "single");
  EXPECT_EQ(doc.root().required_attribute("c"), "with 'quotes'");
}

TEST(XmlParser, AttributeEntities) {
  const auto doc = parse(R"(<r v="a &amp; b"/>)");
  EXPECT_EQ(doc.root().required_attribute("v"), "a & b");
}

struct MalformedCase {
  const char* label;
  const char* input;
};

void PrintTo(const MalformedCase& c, std::ostream* os) {
  *os << c.label << ' ' << ::testing::PrintToString(std::string(c.input));
}

class MalformedXmlTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedXmlTest, Rejected) {
  EXPECT_THROW((void)parse(GetParam().input), ParseError) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedXmlTest,
    ::testing::Values(
        MalformedCase{"empty", ""},
        MalformedCase{"no_root", "   \n  "},
        MalformedCase{"unterminated_tag", "<root"},
        MalformedCase{"mismatched_close", "<a><b></a></b>"},
        MalformedCase{"missing_close", "<a><b></b>"},
        MalformedCase{"trailing_garbage", "<a/>garbage"},
        MalformedCase{"second_root", "<a/><b/>"},
        MalformedCase{"duplicate_attribute", "<a x='1' x='2'/>"},
        MalformedCase{"unknown_entity", "<a>&nope;</a>"},
        MalformedCase{"unterminated_entity", "<a>&amp</a>"},
        MalformedCase{"bad_char_ref", "<a>&#xZZ;</a>"},
        MalformedCase{"non_ascii_char_ref", "<a>&#300;</a>"},
        MalformedCase{"lt_in_attribute", "<a x='<'/>"},
        MalformedCase{"unterminated_comment", "<a><!-- oops </a>"},
        MalformedCase{"unterminated_cdata", "<a><![CDATA[ oops </a>"},
        MalformedCase{"dtd", "<!DOCTYPE html><a/>"},
        MalformedCase{"attr_missing_equals", "<a x '1'/>"},
        MalformedCase{"attr_unquoted", "<a x=1/>"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.label;
    });

TEST(XmlParser, ErrorsCarryLineAndColumn) {
  try {
    (void)parse("<a>\n  <b>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

struct PositionedErrorCase {
  const char* label;
  const char* input;
  std::size_t line;
};

void PrintTo(const PositionedErrorCase& c, std::ostream* os) {
  *os << c.label << ' ' << ::testing::PrintToString(std::string(c.input))
      << " line " << c.line;
}

class ParseErrorPositionTest
    : public ::testing::TestWithParam<PositionedErrorCase> {};

TEST_P(ParseErrorPositionTest, LineAndColumnAreRecorded) {
  try {
    (void)parse(GetParam().input);
    FAIL() << GetParam().label << ": expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << GetParam().label;
    EXPECT_GT(e.column(), 0u) << GetParam().label;
    // The rendered message embeds the position for bare what() consumers.
    EXPECT_NE(std::string(e.what()).find("line " +
                                         std::to_string(GetParam().line)),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParseErrorPositionTest,
    ::testing::Values(
        PositionedErrorCase{"unknown_entity_line2", "<a>\n&nope;</a>", 2},
        PositionedErrorCase{"unterminated_line1", "<root", 1},
        PositionedErrorCase{"mismatched_close_line4", "<a>\n<b>\n</b>\n</c>",
                            4},
        PositionedErrorCase{"second_root_line3", "<a>\n</a>\n<b/>", 3},
        PositionedErrorCase{"bad_attr_line2", "<a>\n<b x=1/>\n</a>", 2}),
    [](const ::testing::TestParamInfo<PositionedErrorCase>& info) {
      return info.param.label;
    });

TEST(XmlParser, ElementsCarrySourceLocations) {
  const auto doc = parse("<root>\n  <child a='1'/>\n  <other/>\n</root>");
  EXPECT_TRUE(doc.root().location().known());
  EXPECT_EQ(doc.root().location().line, 1u);
  EXPECT_EQ(doc.root().location().column, 1u);
  ASSERT_EQ(doc.root().children().size(), 2u);
  // Each child is anchored at its '<', after the two-space indent.
  EXPECT_EQ(doc.root().children()[0]->location().line, 2u);
  EXPECT_EQ(doc.root().children()[0]->location().column, 3u);
  EXPECT_EQ(doc.root().children()[1]->location().line, 3u);
  EXPECT_EQ(doc.root().children()[1]->location().column, 3u);
}

TEST(XmlParser, LocationsFollowTheDeclarationLine) {
  const auto doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<root><inner/></root>");
  EXPECT_EQ(doc.root().location().line, 2u);
  EXPECT_EQ(doc.root().location().column, 1u);
  EXPECT_EQ(doc.root().children()[0]->location().column, 7u);
}

TEST(XmlDom, HandBuiltElementsHaveNoLocation) {
  const Element e("x");
  EXPECT_FALSE(e.location().known());
  EXPECT_EQ(e.location().line, 0u);
  EXPECT_EQ(e.location().column, 0u);
}

TEST(XmlDom, RoundTripThroughSerialisation) {
  const char* source =
      "<servicemapping>"
      "<atomicservice id=\"request_printing\">"
      "<requester id=\"t1\"/><provider id=\"printS\"/>"
      "</atomicservice>"
      "<atomicservice id=\"login_to_printer\">"
      "<requester id=\"p2\"/><provider id=\"printS\"/>"
      "</atomicservice>"
      "</servicemapping>";
  const auto doc = parse(source);
  const auto reparsed = parse(doc.to_string());
  EXPECT_EQ(reparsed.root().children_named("atomicservice").size(), 2u);
  EXPECT_EQ(reparsed.root()
                .children_named("atomicservice")[1]
                ->required_attribute("id"),
            "login_to_printer");
}

TEST(XmlDom, EscapeSpecials) {
  EXPECT_EQ(escape("a<b>&'\""), "a&lt;b&gt;&amp;&apos;&quot;");
  // Escaped text survives a round trip.
  auto root = std::make_unique<Element>("t");
  root->append_text("x < y & z");
  const auto doc2 = parse(Document(std::move(root)).to_string());
  EXPECT_EQ(doc2.root().trimmed_text(), "x < y & z");
}

TEST(XmlDom, RequiredLookupsThrowNotFound) {
  const auto doc = parse("<a><b/></a>");
  EXPECT_THROW((void)doc.root().required_attribute("missing"), NotFoundError);
  EXPECT_THROW((void)doc.root().required_child("missing"), NotFoundError);
  EXPECT_EQ(doc.root().first_child("missing"), nullptr);
  EXPECT_FALSE(doc.root().attribute("missing").has_value());
}

TEST(XmlDom, SetAttributeReplaces) {
  Element e("x");
  e.set_attribute("k", "1");
  e.set_attribute("k", "2");
  EXPECT_EQ(e.required_attribute("k"), "2");
  EXPECT_EQ(e.attributes().size(), 1u);
}

TEST(XmlParser, ParseFileMissingThrows) {
  EXPECT_THROW((void)parse_file("/nonexistent/path/file.xml"), ParseError);
}

TEST(XmlParser, DeeplyNestedDocument) {
  std::string in;
  std::string out;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) {
    in += "<n" + std::to_string(i) + ">";
  }
  for (int i = depth - 1; i >= 0; --i) {
    in += "</n" + std::to_string(i) + ">";
  }
  const auto doc = parse(in);
  const Element* cur = &doc.root();
  int seen = 1;
  while (!cur->children().empty()) {
    cur = cur->children().front().get();
    ++seen;
  }
  EXPECT_EQ(seen, depth);
}


TEST(XmlParser, MutationRobustness) {
  // Deterministic fuzz: random single-byte mutations of a valid document
  // must either parse or raise ParseError/ModelError — never crash or
  // accept garbage silently as something other than XML.
  const std::string base =
      "<servicemapping><atomicservice id=\"s1\">"
      "<requester id=\"a\"/><provider id=\"b\"/></atomicservice>"
      "</servicemapping>";
  upsim::util::Rng rng(1234);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const auto pos = rng.uniform_int(0, mutated.size() - 1);
    const auto byte = static_cast<char>(rng.uniform_int(1, 126));
    mutated[pos] = byte;
    try {
      const auto doc = parse(mutated);
      ++parsed;  // still well-formed (e.g. mutated inside an id value)
      (void)doc;
    } catch (const upsim::ParseError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, 2000);
}

TEST(XmlParser, TruncationRobustness) {
  const std::string base =
      "<umlbundle><profile name=\"p\"><stereotype name=\"S\" "
      "extends=\"Class\"/></profile></umlbundle>";
  for (std::size_t len = 0; len < base.size(); ++len) {
    try {
      (void)parse(base.substr(0, len));
      // A strict prefix of this document is never well-formed.
      FAIL() << "prefix of length " << len << " unexpectedly parsed";
    } catch (const upsim::ParseError&) {
      // expected
    }
  }
  EXPECT_NO_THROW((void)parse(base));
}

}  // namespace
}  // namespace upsim::xml
