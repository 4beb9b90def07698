// src/lint semantic pass: the UPS1xx graph-theoretic family against
// hand-built topologies whose cut structure is known by inspection, the
// UPS104 forecast against the real discovery kernels (randomized
// differential, the same style as the CSR oracle suite), the UPS2xx
// scenario-trace rules, the baseline/fingerprint machinery, and the
// docs-vs-code rule table match.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "casestudy/usi.hpp"
#include "lint/baseline.hpp"
#include "lint/diagnostics.hpp"
#include "lint/render.hpp"
#include "lint/semantic.hpp"
#include "mapping/mapping.hpp"
#include "pathdisc/csr.hpp"
#include "pathdisc/forecast.hpp"
#include "pathdisc/path_discovery.hpp"
#include "reference_paths.hpp"
#include "scenario/event.hpp"
#include "transform/projection.hpp"
#include "uml/class_model.hpp"
#include "uml/object_model.hpp"
#include "uml/profile.hpp"
#include "util/error.hpp"

namespace upsim::lint {
namespace {

[[nodiscard]] std::string_view severity_word(Severity s) {
  switch (s) {
    case Severity::Error:
      return "error";
    case Severity::Warning:
      return "warning";
    case Severity::Note:
      return "note";
  }
  return "?";
}

[[nodiscard]] std::vector<const Diagnostic*> with_code(const Report& report,
                                                       std::string_view code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : report.diagnostics()) {
    if (code == d.code()) out.push_back(&d);
  }
  return out;
}

[[nodiscard]] bool has_code(const Report& report, std::string_view code) {
  return !with_code(report, code).empty();
}

/// A world with one Host class + one host-to-host wire association, every
/// application carrying plausible MTBF/MTTR.  Tests add instances/links to
/// shape the cut structure and map pairs over them.
struct Topology {
  uml::Profile profile{"availability"};
  uml::ClassModel classes{"net"};
  uml::ObjectModel objects{"infra", classes};
  mapping::ServiceMapping map;

  Topology(double host_mtbf = 3000.0, double host_mttr = 24.0) {
    uml::Stereotype& node = profile.define("Node", uml::Metaclass::Class);
    node.declare_attribute("MTBF", uml::ValueType::Real);
    node.declare_attribute("MTTR", uml::ValueType::Real);
    uml::Stereotype& wire =
        profile.define("Wire", uml::Metaclass::Association);
    wire.declare_attribute("MTBF", uml::ValueType::Real);
    wire.declare_attribute("MTTR", uml::ValueType::Real);
    uml::Class& host = classes.define_class("Host");
    auto& applied = host.apply(node);
    applied.set("MTBF", host_mtbf);
    applied.set("MTTR", host_mttr);
    auto& wired = classes.define_association("wire", host, host).apply(wire);
    wired.set("MTBF", 500000.0);
    wired.set("MTTR", 0.5);
  }

  void host(const std::string& name) { objects.instantiate(name, "Host"); }
  void link(const std::string& a, const std::string& b) {
    objects.link(a, b, "wire");
  }

  [[nodiscard]] SemanticInput input() const {
    SemanticInput in;
    in.objects = &objects;
    if (!map.pairs().empty()) {
      MappingInput m;
      m.mapping = &map;
      in.mappings.push_back(m);
    }
    return in;
  }
};

// -- docs <-> code rule table ---------------------------------------------

TEST(LintSemanticDocs, ArchitectureRuleTableMatchesCode) {
  std::ifstream docs(std::string(UPSIM_DOCS_DIR) + "/ARCHITECTURE.md");
  ASSERT_TRUE(docs.is_open()) << "docs/ARCHITECTURE.md not found";
  // Parse every `| UPSnnn | severity | ... |` table row, stripping footnote
  // markers (e.g. "error¹") from the severity cell.
  std::map<std::string, std::string> documented;
  std::string line;
  while (std::getline(docs, line)) {
    if (line.rfind("| UPS", 0) != 0) continue;
    std::stringstream row(line);
    std::string cell;
    std::getline(row, cell, '|');  // leading empty cell
    std::string code;
    std::getline(row, code, '|');
    std::string severity;
    std::getline(row, severity, '|');
    const auto trim = [](std::string& s) {
      const auto from = s.find_first_not_of(' ');
      const auto to = s.find_last_not_of(' ');
      s = from == std::string::npos ? "" : s.substr(from, to - from + 1);
    };
    trim(code);
    trim(severity);
    std::string word;
    for (const char c : severity) {
      if (c >= 'a' && c <= 'z') word.push_back(c);
    }
    EXPECT_TRUE(documented.emplace(code, word).second)
        << code << " documented twice";
  }
  ASSERT_FALSE(documented.empty());
  for (const RuleInfo& info : all_rules()) {
    auto it = documented.find(info.code);
    ASSERT_NE(it, documented.end())
        << info.code << " is in the code's rule table but not documented";
    EXPECT_EQ(it->second, severity_word(info.severity))
        << info.code << " severity drifted between docs and code";
    documented.erase(it);
  }
  EXPECT_TRUE(documented.empty())
      << "docs document rules the code does not define, first: "
      << documented.begin()->first;
}

// -- UPS100/101/102 on known cut structures -------------------------------

TEST(LintSemanticGraph, HubAndSpokeNamesTheHub) {
  Topology t;
  t.host("hub");
  for (const std::string h : {"t1", "t2", "t3", "t4"}) {
    t.host(h);
    t.link(h, "hub");
  }
  t.map.map("svc_a", "t1", "t2");
  t.map.map("svc_b", "t3", "t4");
  const Report report = analyze_semantic(t.input());
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.warning_count(), 0u);
  const auto spofs = with_code(report, "UPS100");
  ASSERT_EQ(spofs.size(), 1u) << render_text(report);
  EXPECT_EQ(spofs[0]->severity, Severity::Note);
  EXPECT_NE(spofs[0]->message.find("'hub'"), std::string::npos);
  // Both mapped pairs ride the finding's affected-pair list.
  EXPECT_NE(spofs[0]->message.find("'svc_a' (t1 -> t2)"), std::string::npos);
  EXPECT_NE(spofs[0]->message.find("'svc_b' (t3 -> t4)"), std::string::npos);
}

TEST(LintSemanticGraph, RingHasNoSpofChainDoes) {
  Topology ring;
  for (const std::string h : {"a", "b", "c", "d"}) ring.host(h);
  ring.link("a", "b");
  ring.link("b", "c");
  ring.link("c", "d");
  ring.link("d", "a");
  ring.map.map("svc", "a", "c");
  const Report ring_report = analyze_semantic(ring.input());
  EXPECT_FALSE(has_code(ring_report, "UPS100")) << render_text(ring_report);
  EXPECT_FALSE(has_code(ring_report, "UPS101"));
  EXPECT_FALSE(has_code(ring_report, "UPS102")) << "ring min cut is 2";

  Topology chain;
  for (const std::string h : {"a", "b", "c"}) chain.host(h);
  chain.link("a", "b");
  chain.link("b", "c");
  chain.map.map("svc", "a", "c");
  const Report chain_report = analyze_semantic(chain.input());
  const auto spofs = with_code(chain_report, "UPS100");
  ASSERT_EQ(spofs.size(), 1u);
  EXPECT_NE(spofs[0]->message.find("'b'"), std::string::npos);
  EXPECT_EQ(with_code(chain_report, "UPS101").size(), 2u)
      << "both chain links are bridges on the pair's paths";
  const auto cuts = with_code(chain_report, "UPS102");
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_NE(cuts[0]->message.find("minimum link cut is 1"),
            std::string::npos);
}

TEST(LintSemanticGraph, MinCutThresholdRaisesTheBar) {
  Topology ring;
  for (const std::string h : {"a", "b", "c", "d"}) ring.host(h);
  ring.link("a", "b");
  ring.link("b", "c");
  ring.link("c", "d");
  ring.link("d", "a");
  ring.map.map("svc", "a", "c");
  SemanticOptions opts;
  opts.min_cut_threshold = 2;
  const Report report = analyze_semantic(ring.input(), opts);
  const auto cuts = with_code(report, "UPS102");
  ASSERT_EQ(cuts.size(), 1u) << render_text(report);
  EXPECT_NE(cuts[0]->message.find("minimum link cut is 2 (threshold 2)"),
            std::string::npos);
}

TEST(LintSemanticGraph, InfrastructureModeReportsGlobally) {
  Topology chain;
  for (const std::string h : {"a", "b", "c"}) chain.host(h);
  chain.link("a", "b");
  chain.link("b", "c");
  // No mapping at all: the registry upload gate's shape.
  const Report report = analyze_semantic(chain.input());
  const auto spofs = with_code(report, "UPS100");
  ASSERT_EQ(spofs.size(), 1u);
  EXPECT_NE(spofs[0]->message.find("splits the infrastructure"),
            std::string::npos);
  EXPECT_EQ(with_code(report, "UPS101").size(), 2u);
  EXPECT_FALSE(has_code(report, "UPS102")) << "pair-scoped rules need pairs";
}

TEST(LintSemanticGraph, DisconnectedPairMakesNoVacuousClaims) {
  Topology t;
  for (const std::string h : {"a", "b", "c", "d"}) t.host(h);
  t.link("a", "b");
  t.link("c", "d");
  t.map.map("svc", "a", "c");  // no path exists at all — UPS010 territory
  const Report report = analyze_semantic(t.input());
  EXPECT_FALSE(has_code(report, "UPS100")) << render_text(report);
  EXPECT_FALSE(has_code(report, "UPS101"));
  EXPECT_FALSE(has_code(report, "UPS102"));
}

// -- UPS103 ---------------------------------------------------------------

TEST(LintSemanticSlo, StructuralBoundGatesOnTheSlo) {
  // availability = MTBF/(MTBF+MTTR) = 99/100 per host; the a->c series
  // cut-set is {a, c, b} plus two near-perfect bridge links, so the bound
  // sits just above 0.99^3 = 0.970299.
  Topology chain(99.0, 1.0);
  for (const std::string h : {"a", "b", "c"}) chain.host(h);
  chain.link("a", "b");
  chain.link("b", "c");
  chain.map.map("svc", "a", "c");

  SemanticOptions lax;
  lax.availability_slo = 0.9;
  EXPECT_FALSE(has_code(analyze_semantic(chain.input(), lax), "UPS103"));

  SemanticOptions strict;
  strict.availability_slo = 0.98;
  const Report report = analyze_semantic(chain.input(), strict);
  const auto slos = with_code(report, "UPS103");
  ASSERT_EQ(slos.size(), 1u) << render_text(report);
  EXPECT_EQ(slos[0]->severity, Severity::Warning);
  EXPECT_NE(slos[0]->message.find("below the SLO 0.98"), std::string::npos);
  EXPECT_NE(slos[0]->message.find("series cut-set of 5 elements"),
            std::string::npos);
}

// -- the USI case study (Sec. VI-G) ---------------------------------------

TEST(LintSemanticUsi, CaseStudyIsCleanAtDefaults) {
  const auto cs = casestudy::make_usi_case_study();
  const auto mapping = cs.mapping_t1_p2();
  SemanticInput in;
  in.objects = cs.infrastructure.get();
  MappingInput m;
  m.mapping = &mapping;
  in.mappings.push_back(m);
  const Report report = analyze_semantic(in);
  // The USI topology has real articulation points (e1, d1, d4, ...), so
  // notes are expected — but "clean" means no errors and no warnings.
  EXPECT_EQ(report.error_count(), 0u) << render_text(report);
  EXPECT_EQ(report.warning_count(), 0u) << render_text(report);
  EXPECT_TRUE(has_code(report, "UPS100"));

  // An SLO below the structural bound stays clean; one above it fires.
  SemanticOptions lax;
  lax.availability_slo = 0.99;
  EXPECT_FALSE(has_code(analyze_semantic(in, lax), "UPS103"));
  SemanticOptions strict;
  strict.availability_slo = 0.999;
  EXPECT_TRUE(has_code(analyze_semantic(in, strict), "UPS103"));
}

// -- UPS104: forecast vs discovery and the reference enumerator -----------

TEST(LintSemanticForecast, MatchesDiscoverOnRandomGraphs) {
  std::mt19937 rng(20260808);
  for (int seed = 0; seed < 120; ++seed) {
    graph::Graph g;
    const std::size_t n = 2 + rng() % 8;
    for (std::size_t i = 0; i < n; ++i) {
      (void)g.add_vertex("v" + std::to_string(i));
    }
    const std::size_t m = rng() % (2 * n + 1);  // parallel edges welcome
    for (std::size_t i = 0; i < m; ++i) {
      const auto a = static_cast<graph::VertexId>(rng() % n);
      auto b = static_cast<graph::VertexId>(rng() % n);
      if (a == b) b = static_cast<graph::VertexId>((graph::index(b) + 1) % n);
      (void)g.add_edge(a, b);
    }
    pathdisc::Options options;
    const std::size_t path_caps[] = {0, 1, 2, 5, 8};
    const std::size_t length_caps[] = {0, 2, 3, 5};
    options.max_paths = path_caps[rng() % 5];
    options.max_path_length = length_caps[rng() % 4];
    // source == target included on purpose: the kernel special-cases it.
    const auto source = static_cast<graph::VertexId>(rng() % n);
    const auto target = static_cast<graph::VertexId>(rng() % n);

    const pathdisc::CsrView view(g);
    const pathdisc::PathSet actual =
        view.discover(source, target, options);
    const pathdisc::PathForecast predicted =
        pathdisc::forecast(view, source, target, options);
    const std::string ctx = "seed " + std::to_string(seed) + " n=" +
                            std::to_string(n) + " m=" + std::to_string(m);
    EXPECT_EQ(predicted.would_truncate, actual.truncated) << ctx;
    EXPECT_EQ(predicted.paths, actual.paths.size()) << ctx;
    EXPECT_EQ(predicted.nodes_expanded, actual.nodes_expanded) << ctx;
    // Forecast and discovery share the kernel; the independent reference
    // enumeration holds the shared answer.
    const pathdisc::PathSet expected =
        pathdisc::reference::all_paths(g, source, target, options);
    EXPECT_EQ(predicted.would_truncate, expected.truncated) << ctx;
    EXPECT_EQ(predicted.paths, expected.paths.size()) << ctx;
    EXPECT_EQ(predicted.nodes_expanded, expected.nodes_expanded) << ctx;
  }
}

TEST(LintSemanticForecast, Ups104FiresIffDiscoveryWouldTruncate) {
  std::mt19937 rng(424242);
  std::size_t fired = 0;
  for (int seed = 0; seed < 60; ++seed) {
    Topology t;
    const std::size_t n = 4 + rng() % 5;
    for (std::size_t i = 0; i < n; ++i) t.host("h" + std::to_string(i));
    // A connected spine plus random chords — enough density that small
    // path caps genuinely truncate on some seeds.  The object model rejects
    // duplicate links, so chords dedup against everything linked so far.
    std::set<std::pair<std::size_t, std::size_t>> linked;
    for (std::size_t i = 1; i < n; ++i) {
      t.link("h" + std::to_string(i - 1), "h" + std::to_string(i));
      linked.emplace(i - 1, i);
    }
    const std::size_t chords = rng() % (n + 3);
    for (std::size_t i = 0; i < chords; ++i) {
      const std::size_t a = rng() % n;
      const std::size_t b = rng() % n;
      if (a == b) continue;
      if (!linked.emplace(std::min(a, b), std::max(a, b)).second) continue;
      t.link("h" + std::to_string(a), "h" + std::to_string(b));
    }
    const std::string provider = "h" + std::to_string(n - 1);
    t.map.map("svc", "h0", provider);

    SemanticOptions opts;
    const std::size_t path_caps[] = {0, 1, 2, 5, 8};
    const std::size_t length_caps[] = {0, 3, 5, 8};
    opts.discovery.max_paths = path_caps[rng() % 5];
    opts.discovery.max_path_length = length_caps[rng() % 4];

    // The oracle: the reference enumeration on the pipeline's projection.
    transform::ProjectionOptions popts;
    popts.require_dependability_attributes = false;
    const graph::Graph g = transform::project(t.objects, popts);
    const bool would_truncate =
        pathdisc::reference::all_paths(g, g.vertex_by_name("h0"),
                                       g.vertex_by_name(provider),
                                       opts.discovery)
            .truncated;

    const Report report = analyze_semantic(t.input(), opts);
    const auto warnings = with_code(report, "UPS104");
    EXPECT_EQ(!warnings.empty(), would_truncate)
        << "seed " << seed << "\n"
        << render_text(report);
    if (!warnings.empty()) {
      ++fired;
      EXPECT_EQ(warnings[0]->severity, Severity::Warning);
      EXPECT_NE(warnings[0]->message.find("would truncate"),
                std::string::npos);
    }
  }
  EXPECT_GE(fired, 5u) << "suspiciously few truncating seeds — the "
                          "differential is not exercising the rule";
}

// -- UPS2xx: scenario-trace lint ------------------------------------------

[[nodiscard]] scenario::Event state_event(double t, scenario::EventKind kind,
                                          std::string element) {
  scenario::Event e;
  e.at_hours = t;
  e.kind = kind;
  e.element = std::move(element);
  return e;
}

[[nodiscard]] scenario::Event migrate_event(double t, std::string perspective,
                                            std::string from, std::string to) {
  scenario::Event e;
  e.at_hours = t;
  e.kind = scenario::EventKind::MigrateService;
  e.perspective = std::move(perspective);
  e.from = std::move(from);
  e.to = std::move(to);
  return e;
}

struct TraceFixture : Topology {
  std::vector<scenario::Event> trace;

  TraceFixture() {
    for (const std::string h : {"a", "b", "c"}) host(h);
    link("a", "b");
    link("b", "c");
    map.map("svc", "a", "c");
  }

  [[nodiscard]] SemanticInput input_with_trace() {
    SemanticInput in = input();
    in.mappings.front().label = "view";
    in.trace = &trace;
    in.trace_file = "trace.jsonl";
    return in;
  }
};

TEST(LintSemanticTrace, UnknownElementsAreErrors) {
  TraceFixture f;
  f.trace.push_back(
      state_event(1.0, scenario::EventKind::FailComponent, "ghost"));
  // A component name where a link is expected is just as unknown.
  f.trace.push_back(state_event(2.0, scenario::EventKind::FailLink, "a"));
  const Report report = analyze_semantic(f.input_with_trace());
  const auto unknown = with_code(report, "UPS200");
  ASSERT_EQ(unknown.size(), 2u) << render_text(report);
  EXPECT_EQ(unknown[0]->severity, Severity::Error);
  EXPECT_NE(unknown[0]->message.find("'ghost'"), std::string::npos);
  EXPECT_EQ(unknown[0]->location.file, "trace.jsonl");
  EXPECT_EQ(unknown[0]->location.line, 1u) << "1-based event ordinal";
  EXPECT_EQ(unknown[1]->location.line, 2u);
}

TEST(LintSemanticTrace, RedundantTransitionsAreWarnings) {
  TraceFixture f;
  f.trace.push_back(
      state_event(1.0, scenario::EventKind::RepairComponent, "a"));
  f.trace.push_back(state_event(2.0, scenario::EventKind::FailComponent, "b"));
  f.trace.push_back(state_event(3.0, scenario::EventKind::FailComponent, "b"));
  const Report report = analyze_semantic(f.input_with_trace());
  const auto redundant = with_code(report, "UPS201");
  ASSERT_EQ(redundant.size(), 2u) << render_text(report);
  EXPECT_EQ(redundant[0]->severity, Severity::Warning);
  EXPECT_NE(redundant[0]->message.find("already up"), std::string::npos);
  EXPECT_NE(redundant[1]->message.find("already down"), std::string::npos);
}

TEST(LintSemanticTrace, NonMonotonicTimestampsAreErrors) {
  TraceFixture f;
  f.trace.push_back(state_event(5.0, scenario::EventKind::FailComponent, "a"));
  f.trace.push_back(
      state_event(3.0, scenario::EventKind::RepairComponent, "a"));
  const Report report = analyze_semantic(f.input_with_trace());
  const auto skew = with_code(report, "UPS202");
  ASSERT_EQ(skew.size(), 1u) << render_text(report);
  EXPECT_EQ(skew[0]->severity, Severity::Error);
  EXPECT_EQ(skew[0]->location.line, 2u);
  EXPECT_NE(skew[0]->message.find("timestamp decreases"), std::string::npos);
}

TEST(LintSemanticTrace, MigrationsToNowhereAreErrors) {
  TraceFixture f;
  f.trace.push_back(migrate_event(1.0, "view", "c", "nowhere"));
  // 'b' is a real instance but perspective 'view' never maps it.
  f.trace.push_back(migrate_event(2.0, "view", "b", "a"));
  const Report report = analyze_semantic(f.input_with_trace());
  const auto unmapped = with_code(report, "UPS203");
  ASSERT_EQ(unmapped.size(), 2u) << render_text(report);
  EXPECT_EQ(unmapped[0]->severity, Severity::Error);
  EXPECT_NE(unmapped[0]->message.find("'nowhere'"), std::string::npos);
  EXPECT_NE(unmapped[1]->message.find("maps nothing to it"),
            std::string::npos);
}

TEST(LintSemanticTrace, WellFormedTraceIsQuiet) {
  TraceFixture f;
  f.trace.push_back(state_event(1.0, scenario::EventKind::FailComponent, "a"));
  f.trace.push_back(
      state_event(2.0, scenario::EventKind::RepairComponent, "a"));
  f.trace.push_back(migrate_event(3.0, "view", "c", "b"));
  const Report report = analyze_semantic(f.input_with_trace());
  EXPECT_FALSE(has_code(report, "UPS200")) << render_text(report);
  EXPECT_FALSE(has_code(report, "UPS201"));
  EXPECT_FALSE(has_code(report, "UPS202"));
  EXPECT_FALSE(has_code(report, "UPS203"));
}

// -- fingerprints + baseline ----------------------------------------------

TEST(LintBaseline, FingerprintIgnoresPositionNotMessage) {
  Report a;
  a.add(Rule::SinglePointOfFailure, "component 'hub' ...", {"m.xml", 3, 1});
  Report b;
  b.add(Rule::SinglePointOfFailure, "component 'hub' ...", {"m.xml", 90, 7});
  EXPECT_EQ(fingerprint(a.diagnostics()[0]), fingerprint(b.diagnostics()[0]))
      << "reformatting the XML must not invalidate a baseline";
  Report c;
  c.add(Rule::SinglePointOfFailure, "component 'spine' ...", {"m.xml", 3, 1});
  EXPECT_NE(fingerprint(a.diagnostics()[0]), fingerprint(c.diagnostics()[0]));
  Report d;
  d.add(Rule::BridgeLink, "component 'hub' ...", {"m.xml", 3, 1});
  EXPECT_NE(fingerprint(a.diagnostics()[0]), fingerprint(d.diagnostics()[0]));
  EXPECT_EQ(fingerprint(a.diagnostics()[0]).size(), 16u);
}

TEST(LintBaseline, RoundTripsThroughJsonAndDisk) {
  Report report;
  report.add(Rule::SinglePointOfFailure, "spof", {"m.xml", 1, 1});
  report.add(Rule::LowMinCut, "cut", {"m.xml", 2, 1});
  const Baseline baseline = baseline_of(report);
  EXPECT_EQ(baseline.size(), 2u);
  const Baseline reparsed = baseline_from_json(to_json(baseline));
  EXPECT_EQ(reparsed.fingerprints, baseline.fingerprints);

  const std::string path = "test_baseline_roundtrip.json";
  save_baseline(baseline, path);
  const Baseline loaded = load_baseline(path);
  EXPECT_EQ(loaded.fingerprints, baseline.fingerprints);
  std::remove(path.c_str());

  EXPECT_THROW((void)baseline_from_json("{\"version\":2,\"fingerprints\":[]}"),
               ParseError);
  EXPECT_THROW((void)baseline_from_json("not json"), ParseError);
  EXPECT_THROW((void)load_baseline("no_such_file.json"), ParseError);
}

TEST(LintBaseline, SuppressesOnlyAcknowledgedFindings) {
  Report report;
  report.add(Rule::SinglePointOfFailure, "old finding", {"m.xml", 1, 1});
  report.add(Rule::BridgeLink, "new finding", {"m.xml", 2, 1});
  report.sort();
  const Baseline baseline = baseline_from_fingerprints(
      {fingerprint(report.diagnostics()[0])});
  std::size_t suppressed = 0;
  const Report remaining = apply_baseline(report, baseline, &suppressed);
  EXPECT_EQ(suppressed, 1u);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining.diagnostics()[0].message, "new finding");
  // An empty baseline is the identity.
  const Report untouched = apply_baseline(report, Baseline{});
  EXPECT_EQ(untouched.size(), 2u);
}

}  // namespace
}  // namespace upsim::lint
