// Host facts, resource usage and the small statistics helpers.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "pmtree/util/simd.hpp"

namespace e2e {

double median(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  if (n == 0) return 0;
  if (n % 2 == 1) return sample[n / 2];
  return (sample[n / 2 - 1] + sample[n / 2]) / 2.0;
}

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double span_overhead_ns() {
  std::vector<double> per_call;
  for (int round = 0; round < 9; ++round) {
    Span span;
    for (int i = 0; i < 20000; ++i) timed(span, [] {});
    per_call.push_back(static_cast<double>(span.ns) /
                       static_cast<double>(span.calls));
  }
  return median(per_call);
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// sysfs cache size ("48K", "2048K", "300M") in bytes; 0 if unreadable.
std::uint64_t parse_size(const std::string& text) {
  std::uint64_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K') value <<= 10;
    if (text[i] == 'M') value <<= 20;
    if (text[i] == 'G') value <<= 30;
  }
  return value;
}

}  // namespace

HostFacts probe_host(std::string commit, std::string source_digest) {
  HostFacts h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.simd_kernel = pmtree::simd::active_kernel();
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  unsigned top_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "type");
    const std::uint64_t size = parse_size(read_line(dir + "size"));
    const unsigned lvl = static_cast<unsigned>(std::stoul(level));
    if (lvl == 1 && type == "Data") h.l1d_bytes = size;
    if (lvl == 2 && type != "Instruction") h.l2_bytes = size;
    if (type != "Instruction" && lvl >= top_level) {
      top_level = lvl;
      h.llc_bytes = size;
    }
  }
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = E2E_BUILD_TYPE;
#ifdef NDEBUG
  h.release = h.build_type == "Release";
#else
  h.release = false;
#endif
  h.commit = std::move(commit);
  h.source_digest = std::move(source_digest);
  return h;
}

pmtree::Json HostFacts::to_json() const {
  pmtree::Json j = pmtree::Json::object();
  j.set("nproc", pmtree::Json(std::uint64_t{nproc}));
  j.set("simd_kernel", pmtree::Json(simd_kernel));
  j.set("l1d_bytes", pmtree::Json(l1d_bytes));
  j.set("l2_bytes", pmtree::Json(l2_bytes));
  j.set("llc_bytes", pmtree::Json(llc_bytes));
  j.set("compiler", pmtree::Json(compiler));
  j.set("build_type", pmtree::Json(build_type));
  j.set("commit", pmtree::Json(commit));
  j.set("source_digest", pmtree::Json(source_digest));
  return j;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void start_on_cpu(unsigned k) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  const int n = CPU_COUNT(&all);
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    if (seen++ == static_cast<int>(k % static_cast<unsigned>(n))) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  (void)sched_setaffinity(0, sizeof(all), &all);
}

unsigned pipeline_workers(const HostFacts& host) {
  return host.nproc > 1 ? host.nproc - 1 : 1;
}

}  // namespace e2e
