#include "workload.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "pathdisc/csr.hpp"
#include "server/protocol.hpp"
#include "transform/projection.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace upsim;

namespace {

constexpr const char* kCampusComposite = "printing_like";
/// Scenario events carry one fixed id, so an event's payload does not
/// depend on its position in the stream.
constexpr std::uint64_t kEventRequestId = 900000;
/// Rounds over a workload's event elements; the stream repeats after them.
constexpr std::size_t kEventRounds = 64;

netgen::CampusSpec campus_spec() {
  netgen::CampusSpec spec;
  spec.distribution = 8;
  spec.edge_per_distribution = 8;
  spec.clients_per_edge = 16;
  spec.servers = 4;  // srv0 front end, srv1-3 printers
  return spec;
}

/// A user at `client` printing on `printer` through the front end srv0,
/// shaped like Table I (the provider-side pairs repeat within a
/// perspective).
mapping::ServiceMapping campus_mapping(const std::string& client,
                                       const std::string& printer) {
  mapping::ServiceMapping m;
  m.map("request_print", client, "srv0");
  m.map("login", printer, "srv0");
  m.map("send_list", "srv0", printer);
  m.map("select", printer, "srv0");
  m.map("send_documents", "srv0", printer);
  return m;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // A terminator byte keeps ["ab","c"] and ["a","bc"] apart.
  h ^= 0xffu;
  h *= 0x100000001b3ULL;
  return h;
}

std::vector<std::size_t> permutation(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  return order;
}

/// The request envelope of `method` with `params_json`.
std::string request_payload(std::uint64_t id, std::string_view method,
                            std::string_view params_json) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("method");
  w.value(method);
  w.key("params");
  w.raw_value(params_json);
  w.end_object();
  return std::move(w).str();
}

void add_perspective(Workload& w, std::string name,
                     mapping::ServiceMapping mapping) {
  Perspective p;
  p.payload = request_payload(
      w.perspectives.size() + 1,
      w.method == Method::Upsim ? "upsim" : "availability",
      server::query_params_json(w.composite, mapping, name));
  p.name = std::move(name);
  p.mapping = std::move(mapping);
  w.perspectives.push_back(std::move(p));
}

scenario::Event make_event(const std::string& element, bool fail) {
  const bool link = element.find("--") != std::string::npos;
  scenario::Event e;
  e.kind = link ? (fail ? scenario::EventKind::FailLink
                        : scenario::EventKind::RepairLink)
                : (fail ? scenario::EventKind::FailComponent
                        : scenario::EventKind::RepairComponent);
  e.element = element;
  return e;
}

/// `blocks` rounds over `elements`, each round in a fresh seeded order;
/// every element fails and is repaired before the next one fails.
void add_events(Workload& w, const std::vector<std::string>& elements,
                std::size_t blocks, util::Rng& rng) {
  for (std::size_t b = 0; b < blocks; ++b) {
    for (const std::size_t i : permutation(elements.size(), rng)) {
      for (const bool fail : {true, false}) {
        scenario::Event e = make_event(elements[i], fail);
        w.event_payloads.push_back(request_payload(
            kEventRequestId, "scenario_step", "{\"event\":" + e.to_json() + "}"));
        w.events.push_back(std::move(e));
      }
    }
  }
}

/// One fail and repair of each of `elements` (a core switch and a
/// distribution uplink, redundant for every queried pair), in the given
/// order.
void add_probe_events(Workload& w, const std::vector<std::string>& elements) {
  for (const std::string& element : elements) {
    for (const bool fail : {true, false}) {
      w.probe_events.push_back(make_event(element, fail));
    }
  }
}

/// Every connection cycles the same seeded order, starting evenly apart.
void rotate_sequences(Workload& w, util::Rng& rng) {
  const std::vector<std::size_t> order =
      permutation(w.perspectives.size(), rng);
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto& seq = w.sequence[c];
    seq = order;
    std::rotate(seq.begin(),
                seq.begin() + static_cast<std::ptrdiff_t>(
                                  c * seq.size() / kConnections),
                seq.end());
  }
}

void add_usi_perspectives(Workload& w) {
  const casestudy::UsiCaseStudy cs = casestudy::make_usi_case_study();
  w.composite = casestudy::printing_service_name();
  for (const char* client : {"t1", "t6", "t9", "t13", "t15"}) {
    for (const char* printer : {"p1", "p2", "p3"}) {
      add_perspective(w, std::string("usi_") + client + "_" + printer,
                      cs.printing_mapping(client, printer));
    }
  }
}

/// Campus users on clients `clients` (by number) times the three printers.
void add_campus_perspectives(Workload& w,
                             const std::vector<std::size_t>& clients) {
  w.usi_model = false;
  w.composite = kCampusComposite;
  for (const std::size_t c : clients) {
    std::string client = "t";
    client += std::to_string(c);
    for (const char* printer : {"srv1", "srv2", "srv3"}) {
      add_perspective(w, "campus_" + client + "_" + printer,
                      campus_mapping(client, printer));
    }
  }
}

void compute_hashes(Workload& w) {
  std::uint64_t stream = kFnvBasis;
  std::vector<std::string_view> population;
  for (const auto& seq : w.sequence) {
    for (const std::size_t i : seq) {
      stream = fnv1a(stream, w.perspectives[i].payload);
      population.push_back(w.perspectives[i].payload);
    }
  }
  for (const std::string& e : w.event_payloads) {
    stream = fnv1a(stream, e);
    population.push_back(e);
  }
  std::sort(population.begin(), population.end());
  std::uint64_t pop = kFnvBasis;
  for (const std::string_view p : population) pop = fnv1a(pop, p);
  w.stream_hash = stream;
  w.population_hash = pop;
}

}  // namespace

std::unique_ptr<Model> Model::usi() {
  std::unique_ptr<Model> m(new Model);
  m->usi_.emplace(casestudy::make_usi_case_study());
  m->infrastructure_ = m->usi_->infrastructure.get();
  m->services_ = m->usi_->services.get();
  return m;
}

std::unique_ptr<Model> Model::campus() {
  std::unique_ptr<Model> m(new Model);
  m->campus_.emplace(netgen::uml_campus(campus_spec()));
  for (const char* atomic :
       {"request_print", "login", "send_list", "select", "send_documents"}) {
    m->campus_services_.define_atomic(atomic);
  }
  (void)m->campus_services_.define_sequence(
      kCampusComposite,
      {"request_print", "login", "send_list", "select", "send_documents"});
  m->infrastructure_ = m->campus_->infrastructure.get();
  m->services_ = &m->campus_services_;
  return m;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  util::Rng rng(seed);
  const netgen::CampusSpec spec = campus_spec();
  const std::size_t edges = spec.distribution * spec.edge_per_distribution;

  if (name == "usi_upsim_hot" || name == "usi_availability") {
    // The 15 printing perspectives of the case study.  upsim answers are
    // served from the response cache after warm-up; availability is never
    // cached, so every request runs the full analysis.
    w.method = name == "usi_upsim_hot" ? Method::Upsim : Method::Availability;
    add_usi_perspectives(w);
    rotate_sequences(w, rng);
    add_probe_events(w, {"c1", "d4--c1"});
  } else if (name == "campus_upsim_miss") {
    // 1024 clients x 3 printers = 3072 perspectives, three times the 1024
    // entries of the default response cache.  Each connection cycles its
    // own half, so a perspective recurs only after 1536 requests of its
    // own connection: the cache, cleared whenever it fills, never holds it
    // by then, however the two connections interleave.  The engine's path
    // cache stays warm.
    w.method = Method::Upsim;
    std::vector<std::size_t> clients(edges * spec.clients_per_edge);
    for (std::size_t i = 0; i < clients.size(); ++i) clients[i] = i;
    add_campus_perspectives(w, clients);
    const std::vector<std::size_t> order =
        permutation(w.perspectives.size(), rng);
    const std::size_t half = order.size() / kConnections;
    for (std::size_t c = 0; c < kConnections; ++c) {
      w.sequence[c].assign(
          order.begin() + static_cast<std::ptrdiff_t>(c * half),
          order.begin() + static_cast<std::ptrdiff_t>((c + 1) * half));
    }
    add_probe_events(w, {"core1", "dist0--core0"});
  } else if (name == "campus_churn") {
    // 96 perspectives (two clients behind every fourth edge switch), well
    // inside the response cache, with fail/repair events between reads:
    // a core switch and a distribution uplink (every cached answer
    // depends on them) and two edge switches of unqueried clients (none
    // does).
    w.method = Method::Upsim;
    std::vector<std::size_t> clients;
    for (std::size_t e = 0; e < edges; e += 4) {
      clients.push_back(e * spec.clients_per_edge);
      clients.push_back(e * spec.clients_per_edge + 1);
    }
    add_campus_perspectives(w, clients);
    rotate_sequences(w, rng);
    add_events(w, {"core1", "dist0--core0", "edge1", "edge63"}, kEventRounds,
               rng);
    w.reads_per_event = 64;
  } else {
    throw Error("unknown workload '" + name + "'");
  }
  compute_hashes(w);
  return w;
}

void check_event_safety(const Workload& workload, const Model& model) {
  const graph::Graph g = transform::project(model.infrastructure());
  const pathdisc::CsrView csr(g);
  const service::CompositeService& composite =
      model.services().get_composite(workload.composite);
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Perspective& p : workload.perspectives) {
    for (const auto& pair : p.mapping.pairs_for(composite)) {
      pairs.emplace(pair.requester, pair.provider);
    }
  }
  std::set<std::string> elements;
  for (const scenario::Event& e : workload.events) elements.insert(e.element);
  for (const scenario::Event& e : workload.probe_events) {
    elements.insert(e.element);
  }

  for (const auto& [requester, provider] : pairs) {
    const pathdisc::PathSet set =
        csr.discover(g.vertex_by_name(requester), g.vertex_by_name(provider));
    for (const std::string& element : elements) {
      const auto vertex = g.find_vertex(element);
      const auto edge = g.find_edge(element);
      if (!vertex && !edge) {
        throw Error("event element '" + element + "' is not in the model");
      }
      const auto survives = [&](const pathdisc::Path& path) {
        if (vertex) {
          return std::find(path.begin(), path.end(), *vertex) == path.end();
        }
        const graph::VertexId a = g.edge(*edge).a;
        const graph::VertexId b = g.edge(*edge).b;
        std::size_t parallel = 0;
        for (const graph::EdgeId e : g.incident_edges(a)) {
          if (g.opposite(e, a) == b) ++parallel;
        }
        if (parallel > 1) return true;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if ((path[i] == a && path[i + 1] == b) ||
              (path[i] == b && path[i + 1] == a)) {
            return false;
          }
        }
        return true;
      };
      if (std::none_of(set.paths.begin(), set.paths.end(), survives)) {
        throw Error("event on '" + element + "' would disconnect " +
                    requester + " -> " + provider);
      }
    }
  }
}

}  // namespace perfbench
