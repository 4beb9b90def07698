// upsim_query — one-shot client for a running upsimd: builds a request from
// command-line arguments (and optionally a Fig. 3 mapping XML file), sends
// it over the wire protocol, and prints the raw JSON response.
//
//   upsim_query --port 7777 --method health
//   upsim_query --port 7777 --method metrics
//   upsim_query --port 7777 --method invalidate_topology
//   upsim_query --port 7777 --method upsim --composite printing \
//               --mapping map.xml [--name view]
//   upsim_query --port 7777 --method availability --composite printing \
//               --mapping map.xml [--samples 100000]
//   upsim_query --port 7777 --method trace --trace-id 9f86d081884c7d65
//
// Registry methods (docs/ARCHITECTURE.md "Model registry"):
//   upsim_query --port 7777 --method model_upload --model acme/net
//               --bundle-file net.xml
//   upsim_query --port 7777 --method model_activate --model acme/net
//               [--version 2]
//   upsim_query --port 7777 --method model_list
//   upsim_query --port 7777 --method model_delete --model acme/net
//               [--version 2]
//
// --model TENANT/MODEL routes *any* method at a registry model (omitted =
// the server's default model, byte-identical to a pre-registry request).
//
// Instead of --mapping FILE, pairs can be given inline as repeated
//   --map SERVICE=REQUESTER:PROVIDER
//
// Every request is stamped with a fresh trace id (printed to stderr) that
// a tracing server records its spans under — feed it back through
// `--method trace --trace-id ...` to see where the time went.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "mapping/mapping.hpp"
#include "net/client.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "server/protocol.hpp"
#include "util/error.hpp"

namespace {

constexpr const char* kUsage =
    "usage: upsim_query [--host H] --port P --method M [--model T/M]\n"
    "                   [--composite NAME] [--mapping map.xml]\n"
    "                   [--map SERVICE=REQUESTER:PROVIDER]... [--name N]\n"
    "                   [--samples N] [--timeout-ms N]\n"
    "                   [--trace-id HEX16]      (for --method trace)\n"
    "                   [--bundle-file f.xml]   (for --method model_upload)\n"
    "                   [--version N]           (model_activate/model_delete)";

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw upsim::Error("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace upsim;
  try {
    net::ClientOptions options;
    std::string method;
    std::string composite;
    std::string mapping_path;
    std::string name;
    std::string samples;
    std::string trace_id;
    std::string bundle_file;
    std::string version;
    mapping::ServiceMapping inline_mapping;
    bool have_inline = false;

    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw Error("missing value after " + std::string(arg));
        }
        return argv[++i];
      };
      if (arg == "--host") {
        options.host = value();
      } else if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(std::stoul(value()));
      } else if (arg == "--method") {
        method = value();
      } else if (arg == "--composite") {
        composite = value();
      } else if (arg == "--mapping") {
        mapping_path = value();
      } else if (arg == "--map") {
        const std::string spec = value();
        const auto eq = spec.find('=');
        const auto colon = spec.find(':', eq == std::string::npos ? 0 : eq);
        if (eq == std::string::npos || colon == std::string::npos) {
          throw Error("--map wants SERVICE=REQUESTER:PROVIDER, got '" + spec +
                      "'");
        }
        inline_mapping.map(spec.substr(0, eq),
                           spec.substr(eq + 1, colon - eq - 1),
                           spec.substr(colon + 1));
        have_inline = true;
      } else if (arg == "--name") {
        name = value();
      } else if (arg == "--samples") {
        samples = value();
      } else if (arg == "--trace-id") {
        trace_id = value();
      } else if (arg == "--model") {
        options.model = value();
      } else if (arg == "--bundle-file") {
        bundle_file = value();
      } else if (arg == "--version") {
        version = value();
      } else if (arg == "--timeout-ms") {
        options.request_timeout_ms = static_cast<int>(std::stoul(value()));
      } else {
        throw Error("unknown argument: " + std::string(arg) + "\n" + kUsage);
      }
    }
    if (method.empty() || options.port == 0) throw Error(kUsage);

    std::string params = "{}";
    if (method == "upsim" || method == "paths" || method == "availability") {
      if (composite.empty() || (mapping_path.empty() && !have_inline)) {
        throw Error("method '" + method +
                    "' needs --composite and --mapping/--map\n" + kUsage);
      }
      const mapping::ServiceMapping m =
          have_inline ? inline_mapping
                      : mapping::ServiceMapping::load(mapping_path);
      params = server::query_params_json(composite, m, name);
      if (!samples.empty()) {
        // Splice the Monte-Carlo sample count into the params object.
        params.back() = ',';
        params += "\"monte_carlo_samples\":" + samples + "}";
      }
    } else if (method == "invalidate_mapping") {
      obs::JsonWriter w;
      w.begin_object();
      w.key("name");
      w.value(name);
      w.end_object();
      params = std::move(w).str();
    } else if (method == "trace") {
      if (trace_id.empty()) {
        throw Error("method 'trace' needs --trace-id\n" + std::string(kUsage));
      }
      obs::JsonWriter w;
      w.begin_object();
      w.key("trace");
      w.value(trace_id);
      w.end_object();
      params = std::move(w).str();
    } else if (method == "model_upload") {
      if (bundle_file.empty()) {
        throw Error("method 'model_upload' needs --bundle-file\n" +
                    std::string(kUsage));
      }
      obs::JsonWriter w;
      w.begin_object();
      w.key("bundle");
      w.value(read_file(bundle_file));
      w.end_object();
      params = std::move(w).str();
    } else if (method == "model_activate" || method == "model_delete") {
      if (!version.empty()) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("version");
        w.raw_value(version);
        w.end_object();
        params = std::move(w).str();
      }
    }

    net::Client client(options);
    const std::string raw = client.call_raw(method, params);
    std::cerr << "trace id: " << obs::format_trace_id(client.last_trace_id())
              << "\n";
    std::cout << raw << "\n";
    // Exit non-zero on protocol errors so shell pipelines can branch.
    return net::parse_response(raw).ok() ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "upsim_query: " << e.what() << "\n";
    return 1;
  }
}
