// Parallel experiment runner: executes every (point x seed) cell of an
// ExperimentPlan as an independent task on a work-stealing thread pool,
// then merges results in deterministic plan order.
//
// Determinism contract (see DESIGN.md "Parallel experiment engine"):
//  * Each task builds its own Scenario from its own config copy; runs share
//    no mutable state (per-run RNG streams, run-local tracer/profiler,
//    thread-local packet-uid counter and log sink).
//  * Workers pull tasks from a shared queue in any order, but aggregation,
//    onRun observation and export all happen after the barrier, in plan
//    order x seed order — so aggregates, exported JSON/CSV and table rows
//    are byte-identical regardless of --jobs.
//  * Exported per-run entries exclude volatile fields (wall_seconds,
//    profile); wall time is reported only on the SweepResult itself.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/scenario/experiment.h"
#include "src/scenario/sweep.h"
#include "src/scenario/table.h"

namespace manet::scenario {

struct RunnerOptions {
  /// Worker threads. 1 = serial in the calling thread (no threads spawned
  /// — exactly the legacy runReplicated path); 0 = resolveJobs() default
  /// (MANET_JOBS, else hardware concurrency).
  int jobs = 0;
  /// The implicit seed axis: each point runs `replications` times with
  /// mobilitySeed = config.mobilitySeed + rep.
  int replications = 1;
  /// Retain every full RunResult (sampled series, profile, ...) in
  /// AggregateResult::runs. Off by default: a 200-point grid must not hold
  /// 200 x seeds runs' series in memory; aggregates and exports are
  /// already complete without them.
  bool keepRuns = false;
  /// Print one progress line per completed run to stderr (serialized
  /// through util::stderrMutex).
  bool progress = false;
  /// Observer invoked during the deterministic merge (plan order, then
  /// seed order) — NOT concurrently and NOT in completion order.
  std::function<void(const SweepPoint&, int rep, const RunResult&)> onRun;
  /// Custom executor for one run (default: Scenario(cfg).run()). The
  /// config already carries the per-rep mobility seed and per-run trace
  /// path. Must be thread-safe across (point, rep) cells.
  std::function<RunResult(const SweepPoint&, int rep,
                          const ScenarioConfig&)> runFn;

  // ---- durability (see DESIGN.md "Experiment durability & supervision") --
  /// Append-only JSONL journal: every finished cell (done / quarantined /
  /// failed) is recorded durably before the campaign moves on. Empty =
  /// no journal.
  std::string journalPath;
  /// Load `journalPath` before running and skip every cell whose journaled
  /// key (config fingerprint + seed + code version) still matches —
  /// restored cells are bit-identical to re-run ones, so aggregates and
  /// exports match an uninterrupted campaign byte for byte.
  bool resume = false;
  /// Recorded in the journal's campaign header (manet ctl resume-cmd).
  std::string campaignCmd;

  // ---- supervision -------------------------------------------------------
  /// Run every cell in a re-exec'd child process (selfCommand + the hidden
  /// --run-cell protocol): a crashing, sanitizer-killed or hung cell is
  /// quarantined instead of taking down the campaign.
  bool isolateCells = false;
  /// How this binary re-invokes itself with the same plan: argv[0] plus
  /// plan-shaping flags only (no supervision/journal flags — children must
  /// not recurse). Required when isolateCells is set.
  std::vector<std::string> selfCommand;
  /// Per-cell wall-clock watchdog. Isolated cells are SIGKILLed on expiry;
  /// in-process cells only get a stderr warning (threads cannot be killed
  /// safely). 0 = no deadline.
  double cellTimeoutSec = 0.0;
  /// Attempts per cell before giving up (>= 1). Retries back off
  /// exponentially from retryBackoffSec.
  int maxAttempts = 1;
  double retryBackoffSec = 0.5;

  // ---- hidden child mode (set by bench_cli's --run-cell) ----------------
  /// When runCellOut is non-empty, runPlan executes only the
  /// (runCellLabel, runCellRep) cell, atomically writes its lossless
  /// result JSON to runCellOut, and exits the process.
  std::string runCellLabel;
  int runCellRep = 0;
  std::string runCellOut;
};

/// One cell the supervisor gave up on (isolateCells only). The campaign
/// still completes; quarantined cells are excluded from aggregates and
/// marked in the journal and in exported aggregate JSON.
struct CellOutcome {
  std::string label;
  int rep = 0;
  int attempts = 1;
  std::string error;
};

struct PointResult {
  SweepPoint point;
  AggregateResult agg;
};

struct SweepResult {
  std::vector<PointResult> points;  // plan order
  double wallSeconds = 0.0;         // whole-sweep wall time
  int jobs = 1;                     // resolved worker count actually used
  int replications = 1;
  /// Cells restored from the journal instead of re-run (--resume).
  std::size_t resumedCells = 0;
  /// Cells the supervisor quarantined (task order); empty on a clean run.
  std::vector<CellOutcome> quarantined;

  bool clean() const { return quarantined.empty(); }

  /// The aggregate for the point with the given export label; throws
  /// std::out_of_range when absent.
  const AggregateResult& at(std::string_view label) const;
};

/// Resolve a --jobs request: n >= 1 is taken as-is; n <= 0 falls back to
/// MANET_JOBS when set, else std::thread::hardware_concurrency (min 1).
int resolveJobs(int jobs);

/// Execute the plan. In-process failures are rethrown (first failing task
/// in deterministic task order) after all workers drain; under
/// opts.isolateCells a failing cell is quarantined instead and the sweep
/// completes (check SweepResult::clean() / reportFailures). Fails fast —
/// before any cell runs — when the export directory or journal is not
/// writable.
SweepResult runPlan(const ExperimentPlan& plan, RunnerOptions opts = {});

/// Multi-line human-readable summary of quarantined cells; empty string
/// when the sweep was clean.
std::string failureDigest(const SweepResult& result);

/// Print the failure digest (if any) to stderr and return the process exit
/// code a campaign driver should use: 0 when clean, 1 otherwise.
int reportFailures(const SweepResult& result);

/// One table row per sweep point: coordinate columns (one per axis) then
/// the plan's metric columns.
Table pointTable(const ExperimentPlan& plan, const SweepResult& result);

/// Pivot a two-axis plan: rows = first-axis values, columns = second-axis
/// values, cells = `metricName` (which must be registered on the plan).
/// `rowHeader` overrides the first column's title (default: the axis name).
Table pivotTable(const ExperimentPlan& plan, const SweepResult& result,
                 const std::string& metricName,
                 const std::string& rowHeader = "");

}  // namespace manet::scenario
