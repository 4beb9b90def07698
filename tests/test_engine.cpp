// PerspectiveEngine differential and concurrency suite.
//
// The engine's contract is "same answers as UpsimGenerator, served
// concurrently with memoised discovery" — so every test here compares an
// engine answer structurally against a fresh sequential generate() on the
// same inputs: cold cache, warm cache, post-invalidation and concurrent
// from many threads.  The stress tests run under -DUPSIM_SANITIZE=thread
// in CI; they hammer queries while another thread churns topology/epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/usi.hpp"
#include "core/upsim_generator.hpp"
#include "engine/perspective_engine.hpp"
#include "netgen/generators.hpp"
#include "obs/obs.hpp"
#include "reference_paths.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace upsim {
namespace {

std::vector<std::string> instance_names(const uml::ObjectModel& model) {
  std::vector<std::string> out;
  for (const auto* inst : model.instances()) out.push_back(inst->name());
  return out;
}

std::set<std::string> link_names(const uml::ObjectModel& model) {
  std::set<std::string> out;
  for (const auto& link : model.links()) out.insert(link->name());
  return out;
}

/// Engine answers must be structurally identical to the generator's: same
/// pairs, same paths in the same discovery order, same emitted UPSIM.
void expect_structurally_equal(const core::UpsimResult& engine_result,
                               const core::UpsimResult& fresh) {
  ASSERT_EQ(engine_result.pairs.size(), fresh.pairs.size());
  for (std::size_t i = 0; i < fresh.pairs.size(); ++i) {
    EXPECT_EQ(engine_result.pairs[i].atomic_service,
              fresh.pairs[i].atomic_service);
    EXPECT_EQ(engine_result.pairs[i].requester, fresh.pairs[i].requester);
    EXPECT_EQ(engine_result.pairs[i].provider, fresh.pairs[i].provider);
  }
  EXPECT_EQ(engine_result.named_paths, fresh.named_paths);
  ASSERT_EQ(engine_result.path_sets.size(), fresh.path_sets.size());
  for (std::size_t i = 0; i < fresh.path_sets.size(); ++i) {
    EXPECT_EQ(engine_result.path_sets[i].paths, fresh.path_sets[i].paths);
    EXPECT_EQ(engine_result.path_sets[i].source, fresh.path_sets[i].source);
    EXPECT_EQ(engine_result.path_sets[i].target, fresh.path_sets[i].target);
    EXPECT_EQ(engine_result.path_sets[i].truncated,
              fresh.path_sets[i].truncated);
  }
  EXPECT_EQ(instance_names(engine_result.upsim),
            instance_names(fresh.upsim));
  EXPECT_EQ(link_names(engine_result.upsim), link_names(fresh.upsim));
  EXPECT_EQ(engine_result.upsim_graph.vertex_count(),
            fresh.upsim_graph.vertex_count());
  EXPECT_EQ(engine_result.upsim_graph.edge_count(),
            fresh.upsim_graph.edge_count());
}

/// A campus network plus a three-step "printing-like" composite whose
/// provider-side pairs repeat across perspectives (the Table I shape).
struct CampusWorkload {
  netgen::UmlNetwork net;
  service::ServiceCatalog services;

  [[nodiscard]] const service::CompositeService& composite() const {
    return services.get_composite("session");
  }
  [[nodiscard]] std::size_t client_count(
      const netgen::CampusSpec& spec) const {
    return spec.distribution * spec.edge_per_distribution *
           spec.clients_per_edge;
  }
};

CampusWorkload make_workload(const netgen::CampusSpec& spec) {
  CampusWorkload w{netgen::uml_campus(spec), {}};
  w.services.define_atomic("request");
  w.services.define_atomic("stage");
  w.services.define_atomic("respond");
  (void)w.services.define_sequence("session", {"request", "stage", "respond"});
  return w;
}

/// A random perspective: client `t<i>` talks to server `srv<j>` which
/// stages on `srv<k>`.  The stage pair repeats across perspectives sharing
/// (j, k) — the cache's bread and butter.
mapping::ServiceMapping random_mapping(util::Rng& rng,
                                       const netgen::CampusSpec& spec,
                                       std::size_t clients) {
  const std::string client =
      "t" + std::to_string(rng.uniform_int(0, clients - 1));
  const std::string front =
      "srv" + std::to_string(rng.uniform_int(0, spec.servers - 1));
  const std::string store =
      "srv" + std::to_string(rng.uniform_int(0, spec.servers - 1));
  mapping::ServiceMapping m;
  m.map("request", client, front);
  m.map("stage", front == store ? client : front, store);
  m.map("respond", front, client);
  return m;
}

class EngineDifferentialTest : public ::testing::Test {
 protected:
  netgen::CampusSpec spec_ = [] {
    netgen::CampusSpec s;
    s.distribution = 3;
    s.edge_per_distribution = 2;
    s.clients_per_edge = 2;
    s.servers = 3;
    return s;
  }();
  CampusWorkload w_ = make_workload(spec_);
};

TEST_F(EngineDifferentialTest, ColdAndWarmAnswersMatchFreshGenerator) {
  core::UpsimGenerator generator(*w_.net.infrastructure);
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(7);
  for (int q = 0; q < 12; ++q) {
    const auto m = random_mapping(rng, spec_, w_.client_count(spec_));
    const std::string name = "persp" + std::to_string(q);
    const auto fresh = generator.generate(w_.composite(), m, name);
    const auto cold = engine.query(w_.composite(), m, name);
    expect_structurally_equal(cold, fresh);
    const auto warm = engine.query(w_.composite(), m, name);
    expect_structurally_equal(warm, fresh);
  }
  // Every repeated query re-hits its three pairs at minimum.
  const auto stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST_F(EngineDifferentialTest, AnswersMatchAfterEpochInvalidation) {
  core::UpsimGenerator generator(*w_.net.infrastructure);
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(11);
  const auto m = random_mapping(rng, spec_, w_.client_count(spec_));
  const auto fresh = generator.generate(w_.composite(), m, "p");
  expect_structurally_equal(engine.query(w_.composite(), m, "p"), fresh);

  const std::uint64_t before = engine.epoch();
  engine.notify_topology_changed();
  EXPECT_EQ(engine.epoch(), before + 1);
  // Nothing actually changed, so post-invalidation answers still match,
  // recomputed from scratch (the old epoch's entries are gone).
  EXPECT_EQ(engine.cache_stats().size, 0u);
  expect_structurally_equal(engine.query(w_.composite(), m, "p"), fresh);
  EXPECT_GT(engine.cache_stats().evictions, 0u);
}

TEST_F(EngineDifferentialTest, AnswersTrackRealTopologyChange) {
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(13);
  const auto m = random_mapping(rng, spec_, w_.client_count(spec_));
  const auto before = engine.query(w_.composite(), m, "p");

  // Add a redundant trunk between two edge switches; new paths appear.
  engine.with_topology_write([&] {
    w_.net.infrastructure->link("edge0", "edge1", "trunk", "stress_trunk");
  });
  const auto after = engine.query(w_.composite(), m, "p");
  core::UpsimGenerator generator(*w_.net.infrastructure);
  expect_structurally_equal(after,
                            generator.generate(w_.composite(), m, "p"));
  // The mutated topology serves at least as many paths.
  EXPECT_GE(after.total_paths(), before.total_paths());
}

TEST_F(EngineDifferentialTest, PropertyChangeKeepsCacheAndEpoch) {
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(17);
  const auto m = random_mapping(rng, spec_, w_.client_count(spec_));
  const auto fresh = engine.query(w_.composite(), m, "p");
  const auto cached = engine.cache_stats().size;
  ASSERT_GT(cached, 0u);

  const std::uint64_t epoch = engine.epoch();
  engine.notify_properties_changed();
  EXPECT_EQ(engine.epoch(), epoch);
  EXPECT_EQ(engine.cache_stats().size, cached);
  const auto hits_before = engine.cache_stats().hits;
  expect_structurally_equal(engine.query(w_.composite(), m, "p"), fresh);
  EXPECT_GT(engine.cache_stats().hits, hits_before);
}

TEST_F(EngineDifferentialTest, ConcurrentQueriesMatchFreshGenerator) {
  core::UpsimGenerator generator(*w_.net.infrastructure);
  engine::PerspectiveEngine engine(*w_.net.infrastructure);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kQueriesPerThread = 8;
  util::Rng rng(23);
  std::vector<std::vector<mapping::ServiceMapping>> mappings(kThreads);
  std::vector<std::vector<core::UpsimResult>> expected(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t q = 0; q < kQueriesPerThread; ++q) {
      mappings[t].push_back(
          random_mapping(rng, spec_, w_.client_count(spec_)));
      expected[t].push_back(generator.generate(
          w_.composite(), mappings[t].back(),
          "t" + std::to_string(t) + "q" + std::to_string(q)));
    }
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = 0; q < kQueriesPerThread; ++q) {
        const auto got = engine.query(
            w_.composite(), mappings[t][q],
            "t" + std::to_string(t) + "q" + std::to_string(q));
        if (got.named_paths != expected[t][q].named_paths ||
            instance_names(got.upsim) !=
                instance_names(expected[t][q].upsim)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(EngineDifferentialTest, QueryBatchMatchesSequentialGenerateBatch) {
  core::UpsimGenerator generator(*w_.net.infrastructure);
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(29);
  std::vector<mapping::ServiceMapping> mappings;
  for (int i = 0; i < 20; ++i) {
    mappings.push_back(random_mapping(rng, spec_, w_.client_count(spec_)));
  }
  const auto fresh = generator.generate_batch(w_.composite(), mappings, "b");
  const auto served = engine.query_batch(w_.composite(), mappings, "b");
  ASSERT_EQ(served.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_structurally_equal(served[i], fresh[i]);
  }
}

TEST_F(EngineDifferentialTest, AvailabilityQueryMatchesAnalysisOnGenerator) {
  core::UpsimGenerator generator(*w_.net.infrastructure);
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(31);
  const auto m = random_mapping(rng, spec_, w_.client_count(spec_));
  core::AnalysisOptions analysis;
  analysis.monte_carlo_samples = 0;  // deterministic estimators only
  const auto expected = core::analyze_availability(
      generator.generate(w_.composite(), m, "p"), analysis);
  const auto got =
      engine.query_availability(w_.composite(), m, "p", analysis);
  EXPECT_DOUBLE_EQ(got.exact, expected.exact);
  EXPECT_DOUBLE_EQ(got.independent_pairs, expected.independent_pairs);
  EXPECT_DOUBLE_EQ(got.rbd, expected.rbd);
  EXPECT_DOUBLE_EQ(got.exact_linear, expected.exact_linear);
}

TEST_F(EngineDifferentialTest, ServedPathsMatchReferenceUnderDownOverlay) {
  // Served paths against the independent reference enumeration
  // (reference_paths.hpp) minus every path through a failed element: same
  // paths in the same order cold, from cache, and while a down overlay
  // filters paths at serve time — through a fail/repair cycle that never
  // rebuilds the projection.
  const core::UpsimGenerator generator(*w_.net.infrastructure);
  const graph::Graph& g = generator.infrastructure_graph();
  engine::PerspectiveEngine engine(*w_.net.infrastructure);
  util::Rng rng(47);
  std::vector<mapping::ServiceMapping> mappings;
  for (int i = 0; i < 8; ++i) {
    mappings.push_back(random_mapping(rng, spec_, w_.client_count(spec_)));
  }
  std::set<std::string> down;
  // A down element may black out a pair entirely (every path traverses
  // it) — then query() throws instead of answering.
  auto compare_all = [&] {
    for (const auto& m : mappings) {
      std::vector<std::vector<std::vector<std::string>>> expected;
      bool blackout = false;
      for (const auto& pair : m.pairs_for(w_.composite())) {
        const pathdisc::PathSet all = pathdisc::reference::all_paths(
            g, g.vertex_by_name(pair.requester),
            g.vertex_by_name(pair.provider));
        auto& alive = expected.emplace_back();
        for (const pathdisc::Path& path : all.paths) {
          auto names = pathdisc::path_names(g, path);
          if (std::none_of(names.begin(), names.end(),
                           [&](const std::string& n) {
                             return down.contains(n);
                           })) {
            alive.push_back(std::move(names));
          }
        }
        if (alive.empty()) blackout = true;
      }
      if (blackout) {
        EXPECT_THROW((void)engine.query(w_.composite(), m, "p"), ModelError);
      } else {
        EXPECT_EQ(engine.query(w_.composite(), m, "p").named_paths, expected);
      }
    }
  };
  compare_all();  // cold
  compare_all();  // cached
  for (const auto& element : {std::string("dist1"), std::string("edge0")}) {
    (void)engine.set_element_state({element}, /*up=*/false);
    down.insert(element);
    compare_all();  // served through the overlay filter
    (void)engine.set_element_state({element}, /*up=*/true);
    down.erase(element);
  }
  compare_all();  // repaired: cache entries survive, answers still agree
  engine.notify_topology_changed();
  compare_all();  // re-projected CSR after an epoch bump
}

TEST(EngineCaseStudy, TableIPerspectiveHitsCacheWithinOneQuery) {
  // Table I repeats (p2, printS) and (printS, p2) across the printing
  // composite's five atomic services, so even a single cold query hits.
  const auto cs = casestudy::make_usi_case_study();
  engine::PerspectiveEngine engine(*cs.infrastructure);
  const auto result = engine.query(
      cs.services->get_composite(casestudy::printing_service_name()),
      cs.mapping_t1_p2(), "view");
  EXPECT_EQ(result.pairs.size(), 5u);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 3u);  // (t1,printS), (p2,printS), (printS,p2)
  EXPECT_EQ(stats.hits, 2u);    // the two repeats
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(EngineObs, CacheHitRateVisibleInObsRegistry) {
  const auto cs = casestudy::make_usi_case_study();
  auto& registry = obs::Registry::global();
  obs::set_enabled(true);
  registry.reset();
  {
    engine::PerspectiveEngine engine(*cs.infrastructure);
    const auto& printing =
        cs.services->get_composite(casestudy::printing_service_name());
    (void)engine.query(printing, cs.mapping_t1_p2(), "view");
    (void)engine.query(printing, cs.mapping_t15_p3(), "view");
  }
  obs::set_enabled(false);
  const auto snapshot = registry.snapshot();
  EXPECT_GT(snapshot.counter("engine.cache.hits"), 0u);
  EXPECT_GT(snapshot.counter("engine.cache.misses"), 0u);
  EXPECT_EQ(snapshot.counter("engine.queries"), 2u);
}

TEST(EngineCaseStudy, MatchesPaperGroundTruthThroughEngine) {
  // The engine must reproduce the published Fig. 11/12 node sets just as
  // the generator does (test_casestudy pins the generator; this pins the
  // engine, warm cache included).
  const auto cs = casestudy::make_usi_case_study();
  engine::PerspectiveEngine engine(*cs.infrastructure);
  const auto& printing =
      cs.services->get_composite(casestudy::printing_service_name());

  const auto r1 = engine.query(printing, cs.mapping_t1_p2(), "view1");
  std::set<std::string> got1;
  for (const auto* inst : r1.upsim.instances()) got1.insert(inst->name());
  const auto& exp1 = casestudy::expected_upsim_t1_p2();
  EXPECT_EQ(got1, std::set<std::string>(exp1.begin(), exp1.end()));

  const auto r2 = engine.query(printing, cs.mapping_t15_p3(), "view2");
  std::set<std::string> got2;
  for (const auto* inst : r2.upsim.instances()) got2.insert(inst->name());
  const auto& exp2 = casestudy::expected_upsim_t15_p3();
  EXPECT_EQ(got2, std::set<std::string>(exp2.begin(), exp2.end()));
}

// -- stress (the TSan targets) ----------------------------------------------

TEST(EngineStress, ConcurrentQueriesDuringTopologyChurn) {
  netgen::CampusSpec spec;
  spec.distribution = 2;
  spec.edge_per_distribution = 2;
  spec.clients_per_edge = 2;
  spec.servers = 2;
  auto w = make_workload(spec);
  engine::PerspectiveEngine engine(*w.net.infrastructure);

  util::Rng rng(41);
  std::vector<mapping::ServiceMapping> mappings;
  for (int i = 0; i < 6; ++i) {
    mappings.push_back(random_mapping(rng, spec, w.client_count(spec)));
  }

  constexpr std::size_t kQueriers = 4;
  constexpr int kQueriesPerThread = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        try {
          const auto result = engine.query(
              w.composite(), mappings[(t + q) % mappings.size()],
              "s" + std::to_string(t) + "_" + std::to_string(q));
          if (result.total_paths() == 0) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Churn: real topology growth, pure epoch bumps and property
  // re-projections, all racing the queriers.
  std::thread mutator([&] {
    for (int i = 0; i < 6; ++i) {
      engine.with_topology_write([&] {
        w.net.infrastructure->link("edge0",
                                   "edge" + std::to_string(1 + i % 3),
                                   "trunk", "churn" + std::to_string(i));
      });
      engine.notify_properties_changed();
      engine.notify_topology_changed();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : threads) th.join();
  mutator.join();
  EXPECT_EQ(failures.load(), 0);

  // Settled answers match a fresh generator on the final topology.
  core::UpsimGenerator generator(*w.net.infrastructure);
  const auto fresh = generator.generate(w.composite(), mappings[0], "final");
  expect_structurally_equal(engine.query(w.composite(), mappings[0], "final"),
                            fresh);
}

TEST(EngineStress, BatchServingRacesInvalidationCleanly) {
  netgen::CampusSpec spec;
  spec.distribution = 2;
  spec.servers = 2;
  auto w = make_workload(spec);
  engine::EngineOptions options;
  options.threads = 4;
  options.record_in_space = false;  // pure serving mode
  engine::PerspectiveEngine engine(*w.net.infrastructure, options);

  util::Rng rng(43);
  std::vector<mapping::ServiceMapping> mappings;
  for (int i = 0; i < 16; ++i) {
    mappings.push_back(random_mapping(rng, spec, w.client_count(spec)));
  }
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      engine.notify_topology_changed();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 5; ++round) {
    const auto results = engine.query_batch(w.composite(), mappings, "r");
    ASSERT_EQ(results.size(), mappings.size());
    for (const auto& r : results) EXPECT_GT(r.total_paths(), 0u);
  }
  stop.store(true);
  invalidator.join();
  // Epoch churn left stale entries behind at most transiently.
  engine.notify_topology_changed();
  EXPECT_EQ(engine.cache_stats().size, 0u);
}

}  // namespace
}  // namespace upsim
