// Workload generation for the loopback serving benchmark.
//
// A workload is a model (the paper's USI case study or a generated
// campus), a method, a population of user perspectives, the order in which
// each client connection cycles through them and, on campus_churn only, a
// stream of scenario fail/repair events.  Everything is a function of the
// workload name and the seed: the seed permutes orders, it never changes
// the population, so two seeds exercise the same requests and events in a
// different sequence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "casestudy/usi.hpp"
#include "mapping/mapping.hpp"
#include "netgen/generators.hpp"
#include "scenario/event.hpp"
#include "service/service.hpp"
#include "uml/object_model.hpp"

namespace perfbench {

/// Client connections and server pool workers of every run.
inline constexpr std::size_t kConnections = 2;

enum class Method { Upsim, Availability };

/// The infrastructure and service catalog one serving stack (or the
/// reference engine of the output checks) reads.  Owns both, in dependency
/// order; not movable because the pointers below point into it.
class Model {
 public:
  /// The USI case study of the paper (Sec. VI).
  static std::unique_ptr<Model> usi();
  /// A generated campus (8 distribution x 8 edge x 16 clients, 4 servers)
  /// with the five-service "printing_like" composite.
  static std::unique_ptr<Model> campus();

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  [[nodiscard]] const upsim::uml::ObjectModel& infrastructure() const {
    return *infrastructure_;
  }
  [[nodiscard]] const upsim::service::ServiceCatalog& services() const {
    return *services_;
  }

 private:
  Model() = default;

  std::optional<upsim::casestudy::UsiCaseStudy> usi_;
  std::optional<upsim::netgen::UmlNetwork> campus_;
  upsim::service::ServiceCatalog campus_services_;
  const upsim::uml::ObjectModel* infrastructure_ = nullptr;
  const upsim::service::ServiceCatalog* services_ = nullptr;
};

struct Perspective {
  std::string name;
  upsim::mapping::ServiceMapping mapping;
  /// The request frame payload; its "id" is the perspective's index + 1.
  std::string payload;
};

struct Workload {
  std::string name;
  bool usi_model = true;  ///< false: the generated campus
  std::string composite;
  Method method = Method::Upsim;
  /// The population, in a fixed (seed-independent) order.
  std::vector<Perspective> perspectives;
  /// Per connection: the perspective indices it cycles through.
  std::array<std::vector<std::size_t>, kConnections> sequence;
  /// Alternating fail/repair of one element at a time; every fail is
  /// repaired by the next event.  Cycled when a window outlasts it.  Empty
  /// on the read-only workloads.
  std::vector<upsim::scenario::Event> events;
  std::vector<std::string> event_payloads;  ///< inline scenario_step frames
  /// Connection 0 sends the next event after this many of its reads.
  std::size_t reads_per_event = 0;
  /// On the read-only workloads: fail/repair events the traced replay
  /// applies to its in-process engine to time the invalidation layer.
  /// Never sent to the server.
  std::vector<upsim::scenario::Event> probe_events;
  /// FNV-1a of the request sequences and event stream in order, and of
  /// their sorted multiset (equal across seeds).
  std::uint64_t stream_hash = 0;
  std::uint64_t population_hash = 0;

  [[nodiscard]] std::unique_ptr<Model> make_model() const {
    return usi_model ? Model::usi() : Model::campus();
  }
};

/// Builds `name` for `seed`; throws upsim::Error for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Throws upsim::Error unless every queried (requester, provider) pair
/// keeps at least one path while any single event or probe element is
/// down — neither stream ever has two elements down at once.
void check_event_safety(const Workload& workload, const Model& model);

}  // namespace perfbench
