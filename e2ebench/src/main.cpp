// e2ebench: the E26 end-to-end and per-layer serving benchmark.
//
//   e2ebench --workload <big_tree_paths|hot_forest_overload|rw_dyn_churn>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Earlier output lines carry host facts, the configuration, the per-run
// samples behind each median and the traced sweep tables; the last line
// is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// A failed correctness gate prints no result and exits 1.
#include <charconv>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--source-digest <hex>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    kv[argv[i]] = argv[i + 1];
  }
  Args a;
  try {
    for (const auto& [key, value] : kv) {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--source-digest") {
        a.source_digest = value;
      } else {
        usage("unknown option " + key);
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  return pmtree::Json(s).dump();
}

void print_result(std::uint64_t attempted, const Metrics& metrics) {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

/// End-to-end mode: alternate oracle and pipeline runs of the whole stream
/// for `seconds`, in kSegments segments. Each segment starts the control
/// thread on another CPU, and between segments the system under test is
/// rebuilt, so one run samples several thread and memory placements. The
/// rebuilds, timed in the warm process, give setup_s (the first set-up of
/// a fresh process also faults in the allocator's pages, so it is not
/// timed).
Metrics end_to_end(Rig& rig, double seconds, pmtree::Json& detail) {
  constexpr int kSegments = 6;
  rig.setup();
  std::vector<double> setup_s;
  std::vector<double> oracle_s;
  std::vector<double> pipeline_s;
  const Clock::time_point start = Clock::now();
  for (int segment = 1; segment <= kSegments; ++segment) {
    const double end = seconds * segment / kSegments;
    start_on_cpu(static_cast<unsigned>(segment));
    do {
      oracle_s.push_back(rig.timed_run(false));
      pipeline_s.push_back(rig.timed_run(true));
    } while (std::chrono::duration<double>(Clock::now() - start).count() <
             end);
    if (segment == kSegments) break;
    const Clock::time_point t0 = Clock::now();
    rig.setup();
    setup_s.push_back(static_cast<double>(ns_between(t0, Clock::now())) *
                      1e-9);
  }
  const auto samples = [](const std::vector<double>& v) {
    pmtree::Json a = pmtree::Json::array();
    for (const double x : v) a.push_back(pmtree::Json(x));
    return a;
  };
  detail.set("setup_s", samples(setup_s));
  detail.set("oracle_wall_s", samples(oracle_s));
  detail.set("pipeline_wall_s", samples(pipeline_s));
  const auto n = static_cast<double>(rig.requests());
  Metrics out;
  out.push_back({"oracle_wall_rps", n / median(oracle_s), "req/s"});
  out.push_back({"pipeline_wall_rps", n / median(pipeline_s), "req/s"});
  rig.sim_metrics(out);
  out.push_back({"setup_s", median(setup_s), "s"});
  out.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const HostFacts host = probe_host(args.commit, args.source_digest);
  std::cout << "host " << host.to_json().dump() << std::endl;
  if (!host.release) {
    std::cerr << "e2ebench: refusing to report wall metrics from a "
              << host.build_type << " build (need Release with NDEBUG)\n";
    return 3;
  }

  std::unique_ptr<Rig> rig;
  if (args.workload == "big_tree_paths") {
    rig = make_big_tree_paths(args.seed, host);
  } else if (args.workload == "hot_forest_overload") {
    rig = make_hot_forest_overload(args.seed, host);
  } else if (args.workload == "rw_dyn_churn") {
    rig = make_rw_dyn_churn(args.seed, host);
  } else {
    usage("unknown workload '" + args.workload + "'");
  }

  try {
    Metrics metrics;
    pmtree::Json detail = pmtree::Json::object();
    if (args.trace) {
      rig->setup();
      rig->traced(args.seconds, metrics, detail);
    } else {
      metrics = end_to_end(*rig, args.seconds, detail);
    }
    pmtree::Json config = rig->describe();
    config.set("workload", pmtree::Json(args.workload));
    config.set("seed", pmtree::Json(args.seed));
    std::cout << "config " << config.dump() << std::endl;
    std::cout << "detail " << detail.dump() << std::endl;
    print_result(rig->gated_runs(), metrics);
  } catch (const GateFailure& failure) {
    std::cerr << "e2ebench: correctness gate failed: " << failure.what()
              << "\n";
    return 1;
  }
  return 0;
}
