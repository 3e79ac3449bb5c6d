// manet_prof: offline inspection of BENCH_*.json performance reports.
//
// bench/perf_baseline writes schema-versioned BENCH files; this tool asks
// them the hotspot questions the raw JSON makes tedious:
//
//   manet_prof <BENCH.json>              per-scenario digest: wall per rep,
//                                        peak RSS, category self time, top-K
//                                        hot nodes (with positions), channel
//                                        fan-out histogram, event-horizon
//                                        histogram, queue depth, allocation
//                                        sites
//   manet_prof --top N <BENCH.json>      limit the hot-node table to N rows
//   manet_prof --diff A.json B.json      compare ONLY deterministic fields
//                                        (activations, fan-out counts,
//                                        horizon buckets, alloc tallies...).
//                                        Two same-seed runs must report zero
//                                        deltas; wall-time deltas are shown
//                                        separately as informational. Exits
//                                        1 when deterministic fields differ.
//   manet_prof --self-test               exercise print + diff on synthetic
//                                        reports (no files needed)
//
// v1 reports (BENCH_seed.json predates the hotspot section) print their
// wall/category data and note that hotspot analytics need a v2 report.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/prof/bench_report.h"

using namespace manet;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--top N] <BENCH.json>\n"
               "       %s --diff A.json B.json\n"
               "       %s --self-test\n",
               argv0, argv0, argv0);
  return 2;
}

bool readWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::optional<prof::BenchReport> loadReport(const std::string& path) {
  std::string text, err;
  if (!readWholeFile(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  auto r = prof::parseBenchReport(text, &err);
  if (!r) std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
  return r;
}

void printBuckets(const char* indent,
                  const std::vector<prof::HistBucket>& buckets,
                  std::uint64_t total, const char* unit) {
  // Simple text histogram: one row per populated bucket with a bar scaled
  // to the most populated one.
  std::uint64_t maxCount = 0;
  for (const prof::HistBucket& b : buckets) {
    maxCount = std::max(maxCount, b.count);
  }
  if (maxCount == 0) return;
  for (const prof::HistBucket& b : buckets) {
    if (b.count == 0) continue;
    const int bar = static_cast<int>(
        (b.count * 40 + maxCount - 1) / maxCount);
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(b.count) /
                        static_cast<double>(total)
                  : 0.0;
    std::printf("%s[%8" PRIu64 ", %8" PRIu64 ") %-6s %10" PRIu64
                " %5.1f%% %.*s\n",
                indent, b.low, b.high, unit, b.count, pct, bar,
                "########################################");
  }
}

void printScenario(const prof::BenchScenario& s, std::size_t topK) {
  std::printf("%s\n", s.name.c_str());
  std::printf("  median wall %.3f s over %d reps, %" PRIu64
              " events (%.0f ev/s), queue peak %" PRIu64 "\n",
              s.wallSecondsMedian, s.repetitions, s.events,
              s.eventsPerSecMedian, s.schedQueuePeak);
  std::printf("  wall per rep:");
  for (const double w : s.wallSecondsAll) std::printf(" %.3fs", w);
  std::printf("   peak RSS %.1f MB\n",
              static_cast<double>(s.peakRssBytes) / (1024.0 * 1024.0));
  if (!s.categorySelfSeconds.empty()) {
    double total = 0.0;
    for (const auto& [name, sec] : s.categorySelfSeconds) total += sec;
    std::printf("  category self time:");
    for (const auto& [name, sec] : s.categorySelfSeconds) {
      std::printf(" %s=%.3fs (%.1f%%)", name.c_str(), sec,
                  total > 0.0 ? 100.0 * sec / total : 0.0);
    }
    std::printf("\n");
  }
  if (!s.hasHotspot) {
    std::printf(
        "  (schema v1 record: no hotspot section; regenerate with a "
        "current perf_baseline for fan-out / queue / alloc analytics)\n\n");
    return;
  }

  std::printf("  hot nodes (by activations; self time informational):\n");
  std::printf("    %4s %9s %9s %12s %12s %10s\n", "node", "x", "y",
              "activations", "frames_heard", "self_s");
  const std::size_t n = std::min(topK, s.topNodes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const prof::BenchTopNode& t = s.topNodes[i];
    std::printf("    %4u %9.1f %9.1f %12" PRIu64 " %12" PRIu64 " %10.4f\n",
                t.node, t.x, t.y, t.activations, t.framesHeard,
                t.selfSeconds);
  }

  const prof::FanoutReport& f = s.fanout;
  std::printf("  channel fan-out: %" PRIu64 " transmissions, %" PRIu64
              " radios examined, %" PRIu64 " in range (%.1f%%)\n",
              f.transmissions, f.radiosExamined, f.radiosInRange,
              f.radiosExamined > 0
                  ? 100.0 * static_cast<double>(f.radiosInRange) /
                        static_cast<double>(f.radiosExamined)
                  : 0.0);
  std::printf("    in-range per tx: p50 %.1f p90 %.1f p99 %.1f max %" PRIu64
              "\n",
              f.p50, f.p90, f.p99, f.maxInRange);
  printBuckets("    ", f.buckets, f.transmissions, "rx");

  const prof::QueueReport& q = s.queue;
  std::printf("  event queue: %" PRIu64 " scheduled, %" PRIu64
              " zero-horizon, depth peak %" PRIu64 " mean %.1f\n",
              q.scheduled, q.zeroHorizon, q.depthPeak, q.depthMean);
  std::printf("    horizon ns: p50 %.0f p90 %.0f p99 %.0f max %" PRIu64
              "\n",
              q.horizonP50Ns, q.horizonP90Ns, q.horizonP99Ns,
              q.maxHorizonNs);
  printBuckets("    ", q.horizonBuckets, q.scheduled, "ns");

  std::printf("  allocation sites:\n");
  for (std::size_t i = 0; i < prof::kNumAllocSites; ++i) {
    const prof::AllocSiteStats& a = s.alloc[i];
    std::printf("    %-12s count %10" PRIu64 "  bytes %12" PRIu64
                "  live %8" PRIu64 "  high water %8" PRIu64 "\n",
                prof::toString(static_cast<prof::AllocSite>(i)), a.count,
                a.bytes, a.live, a.highWater);
  }
  std::printf("\n");
}

int runPrint(const std::string& path, std::size_t topK) {
  const auto r = loadReport(path);
  if (!r) return 2;
  std::printf("%s: label \"%s\", schema v%d, %zu scenarios\n\n",
              path.c_str(), r->label.c_str(), r->schemaVersion,
              r->scenarios.size());
  for (const prof::BenchScenario& s : r->scenarios) printScenario(s, topK);
  return 0;
}

int runDiff(const std::string& pathA, const std::string& pathB) {
  const auto a = loadReport(pathA);
  const auto b = loadReport(pathB);
  if (!a || !b) return 2;

  const std::vector<std::string> deltas = prof::diffBenchReports(*a, *b);
  if (deltas.empty()) {
    std::printf("deterministic fields identical (%zu scenarios)\n",
                a->scenarios.size());
  } else {
    std::printf("%zu deterministic delta(s):\n", deltas.size());
    for (const std::string& d : deltas) std::printf("  %s\n", d.c_str());
  }

  // Wall-time movement is expected machine noise — always informational,
  // never part of the exit status (that is --compare's job).
  for (const prof::BenchScenario& sa : a->scenarios) {
    const prof::BenchScenario* sb = b->find(sa.name);
    if (sb == nullptr || sa.wallSecondsMedian <= 0.0) continue;
    const double ratio = sb->wallSecondsMedian / sa.wallSecondsMedian;
    std::printf("wall (informational): %-20s %.3fs -> %.3fs (x%.3f)\n",
                sa.name.c_str(), sa.wallSecondsMedian, sb->wallSecondsMedian,
                ratio);
  }
  return deltas.empty() ? 0 : 1;
}

prof::BenchScenario syntheticScenario() {
  prof::BenchScenario s;
  s.name = "synthetic";
  s.repetitions = 3;
  s.events = 123456;
  s.wallSecondsMedian = 1.5;
  s.eventsPerSecMedian = 82304.0;
  s.wallSecondsAll = {1.6, 1.5, 1.7};
  s.schedQueuePeak = 77;
  s.categorySelfSeconds.emplace_back("mac", 0.4);
  s.hasHotspot = true;
  s.topNodes.push_back({7, 120.0, 80.0, 5000, 900, 0.2});
  s.topNodes.push_back({3, 40.0, 10.0, 4000, 800, 0.1});
  s.fanout.transmissions = 1000;
  s.fanout.radiosExamined = 20000;
  s.fanout.radiosInRange = 6000;
  s.fanout.maxInRange = 12;
  s.fanout.p50 = 6.0;
  s.fanout.p90 = 9.0;
  s.fanout.p99 = 11.0;
  s.fanout.buckets.push_back({4, 8, 700});
  s.fanout.buckets.push_back({8, 16, 300});
  s.queue.scheduled = 123456;
  s.queue.zeroHorizon = 10;
  s.queue.maxHorizonNs = 2000000000;
  s.queue.horizonP50Ns = 5000.0;
  s.queue.horizonP90Ns = 900000.0;
  s.queue.horizonP99Ns = 60000000.0;
  s.queue.horizonBuckets.push_back({0, 4096, 50000});
  s.queue.horizonBuckets.push_back({4096, 8192, 73456});
  s.queue.depthPeak = 77;
  s.queue.depthMean = 41.5;
  s.queue.depthSamples.push_back({1000000, 30});
  s.queue.depthSamples.push_back({2000000, 55});
  s.alloc[0] = {9000, 9000 * 256, 0, 120};
  s.alloc[1] = {123456, 123456 * 64, 0, 77};
  s.alloc[2] = {40000, 40000 * 96, 40000, 40000};
  return s;
}

// Self-test: a v2 report must round-trip through serialize -> parse with
// every deterministic field intact (diff == empty), a perturbed activation
// count must surface as exactly one delta, and a wall-time-only change must
// NOT (that is the whole point of the deterministic diff).
int runSelfTest() {
  prof::BenchReport a;
  a.label = "selftest";
  a.scenarios.push_back(syntheticScenario());

  std::string err;
  const auto re = prof::parseBenchReport(prof::toJson(a), &err);
  if (!re) {
    std::fprintf(stderr, "self-test: round-trip parse failed: %s\n",
                 err.c_str());
    return 1;
  }
  if (!prof::diffBenchReports(a, *re).empty()) {
    std::fprintf(stderr,
                 "self-test FAILED: round-trip changed deterministic "
                 "fields\n");
    for (const std::string& d : prof::diffBenchReports(a, *re)) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 1;
  }

  prof::BenchReport b = a;
  b.scenarios[0].wallSecondsMedian *= 2.0;  // volatile: must not diff
  b.scenarios[0].topNodes[0].selfSeconds *= 2.0;
  if (!prof::diffBenchReports(a, b).empty()) {
    std::fprintf(stderr,
                 "self-test FAILED: wall-time change reported as a "
                 "deterministic delta\n");
    return 1;
  }
  b.scenarios[0].topNodes[0].activations += 1;  // deterministic: must diff
  const std::vector<std::string> deltas = prof::diffBenchReports(a, b);
  if (deltas.size() != 1) {
    std::fprintf(stderr,
                 "self-test FAILED: expected exactly 1 delta for a "
                 "perturbed activation count, got %zu\n",
                 deltas.size());
    return 1;
  }

  // Exercise the printer on the synthetic report (output format smoke).
  printScenario(a.scenarios[0], 10);
  std::puts("self-test passed: round-trip clean, diff separates "
            "deterministic from volatile");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t topK = 10;
  std::string diffPaths[2];
  bool diff = false;
  bool selfTest = false;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n <= 0) return usage(argv[0]);
      topK = static_cast<std::size_t>(n);
    } else if (arg == "--diff" && i + 2 < argc) {
      diffPaths[0] = argv[++i];
      diffPaths[1] = argv[++i];
      diff = true;
    } else if (arg == "--self-test") {
      selfTest = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }

  if (selfTest) return runSelfTest();
  if (diff) return runDiff(diffPaths[0], diffPaths[1]);
  if (path.empty()) return usage(argv[0]);
  return runPrint(path, topK);
}
