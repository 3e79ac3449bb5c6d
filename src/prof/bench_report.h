// BENCH_*.json — the repo's performance-baseline file format.
//
// bench/perf_baseline runs the canonical scenarios, takes the median wall
// time of >= 3 repetitions, and writes one schema-versioned BenchReport.
// Committed baselines (BENCH_seed.json) let later sessions and CI diff a
// fresh run against a known-good machine profile: compareBenchReports
// flags any scenario whose median wall time regressed past a configurable
// threshold. Parsing goes through util::parseJson, so a report written by
// one build is readable by every later one (unknown keys are ignored;
// schema_version gates incompatible rewrites).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/prof/profiler.h"

namespace manet::prof {

/// Version written by this build. Schema history:
///   v1  wall medians, events, category self-seconds (BENCH_seed.json).
///   v2  adds the per-scenario "hotspot" section: top-K nodes with spatial
///       coordinates, channel fan-out, event-queue horizon/depth analytics
///       and allocation-site counters.
/// parseBenchReport accepts both; v1 reports simply carry no hotspot data
/// (hasHotspot == false), so --compare against BENCH_seed.json keeps
/// working.
inline constexpr int kBenchSchemaVersion = 2;
inline constexpr int kBenchMinSchemaVersion = 1;

/// One of the K hottest nodes of a scenario, ranked by deterministic
/// activation count (ties broken by node id) so the ranking — unlike the
/// informational selfSeconds — is identical across same-seed runs.
struct BenchTopNode {
  std::uint32_t node = 0;
  double x = 0.0;  // end-of-run position (spatial heatmap coordinates)
  double y = 0.0;
  std::uint64_t activations = 0;
  std::uint64_t framesHeard = 0;
  double selfSeconds = 0.0;  // wall time: informational, excluded from diff
};

/// One benchmark scenario's measured profile (median across repetitions).
struct BenchScenario {
  std::string name;
  int repetitions = 0;
  std::uint64_t events = 0;          // scheduler dispatches, median rep
  double wallSecondsMedian = 0.0;
  double eventsPerSecMedian = 0.0;
  std::vector<double> wallSecondsAll;  // every repetition, run order
  std::uint64_t peakRssBytes = 0;
  std::uint64_t schedQueuePeak = 0;
  /// Per-category exclusive wall time (seconds) from the median repetition,
  /// category name -> seconds; categories with no activity are omitted.
  std::vector<std::pair<std::string, double>> categorySelfSeconds;
  /// Schema v2: hotspot observability from the median repetition. False for
  /// v1 reports and for runs without profiling.
  bool hasHotspot = false;
  std::vector<BenchTopNode> topNodes;
  FanoutReport fanout;
  QueueReport queue;
  std::array<AllocSiteStats, kNumAllocSites> alloc{};
};

struct BenchReport {
  int schemaVersion = kBenchSchemaVersion;
  std::string label;
  std::vector<BenchScenario> scenarios;

  const BenchScenario* find(const std::string& name) const;
};

std::string toJson(const BenchReport& r);

/// Parse a BENCH_*.json document. Returns nullopt (and sets `err` if
/// non-null) on malformed JSON or an unsupported schema_version.
std::optional<BenchReport> parseBenchReport(std::string_view text,
                                            std::string* err = nullptr);

/// One scenario's baseline-vs-candidate delta.
struct BenchComparisonRow {
  std::string name;
  double baselineWallSec = 0.0;
  double candidateWallSec = 0.0;
  /// candidate / baseline; > 1 means the candidate is slower.
  double wallRatio = 0.0;
  double baselineEventsPerSec = 0.0;
  double candidateEventsPerSec = 0.0;
  bool regressed = false;
  /// Category with the largest self-seconds increase (empty when neither
  /// report carries category data); printed when the row regresses so the
  /// failure names the metric that moved, not just the scenario.
  std::string worstCategory;
  double worstCategoryBaseSec = 0.0;
  double worstCategoryCandSec = 0.0;
};

struct BenchComparison {
  std::vector<BenchComparisonRow> rows;
  /// Scenarios present in only one of the two reports (not an error, but
  /// reported so a silently shrunk benchmark set can't hide a regression).
  std::vector<std::string> onlyInBaseline;
  std::vector<std::string> onlyInCandidate;
  double threshold = 0.0;
  bool regressed = false;  // any row regressed
};

/// Compare two reports scenario-by-scenario. A scenario regresses when its
/// candidate median wall time exceeds baseline * (1 + threshold).
BenchComparison compareBenchReports(const BenchReport& baseline,
                                    const BenchReport& candidate,
                                    double threshold);

/// Human-readable comparison table (one line per scenario plus a verdict).
/// Regressed rows get a detail line naming the scenario, both wall times,
/// and the worst-moving category with both of its values.
std::string formatComparison(const BenchComparison& c);

/// Deterministic-field diff for `manet prof --diff`: compares only fields
/// that are pure functions of the simulation (events, queue peaks, top-node
/// activations / frames heard / positions, fan-out and horizon counts,
/// allocation tallies) and ignores every wall-time-derived value. Two runs
/// of the same seed therefore diff to zero lines; any line signals a real
/// behavioural divergence, not timing noise.
std::vector<std::string> diffBenchReports(const BenchReport& a,
                                          const BenchReport& b);

}  // namespace manet::prof
