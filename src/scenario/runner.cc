#include "src/scenario/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/scenario/journal.h"
#include "src/scenario/supervisor.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry_config.h"
#include "src/util/atomic_file.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace manet::scenario {

namespace {

ScenarioConfig taskConfig(const SweepPoint& point, int rep, int replications,
                          std::size_t numPoints) {
  ScenarioConfig cfg = point.config;
  cfg.mobilitySeed =
      point.config.mobilitySeed + static_cast<std::uint64_t>(rep);
  // Concurrent runs must never share a trace file: tag the path with the
  // point label (multi-point sweeps) and replication index. A single
  // (point, seed) run keeps the configured path untouched.
  const auto tagPath = [&](std::string& path) {
    if (path.empty()) return;
    if (numPoints > 1) {
      path = telemetry::perRunPath(path, point.label, rep);
    } else if (replications > 1) {
      path = telemetry::perRunPath(path, rep);
    }
  };
  tagPath(cfg.telemetry.traceJsonlPath);
  tagPath(cfg.telemetry.perfettoPath);
  return cfg;
}

void addToAggregate(AggregateResult& agg, const RunResult& r) {
  const metrics::Metrics& m = r.metrics;
  agg.deliveryFraction.add(m.packetDeliveryFraction());
  agg.avgDelaySec.add(m.avgDelaySec());
  agg.normalizedOverhead.add(m.normalizedOverhead());
  agg.throughputKbps.add(m.throughputKbps(r.duration));
  agg.goodReplyPct.add(m.goodReplyPct());
  agg.invalidCacheHitPct.add(m.invalidCacheHitPct());
  agg.cacheHits.add(static_cast<double>(m.cacheHits));
  agg.linkBreaks.add(static_cast<double>(m.linkBreaksDetected));
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    agg.invalidHitsByOrigin[i].add(
        static_cast<double>(m.invalidCacheHitsByOrigin[i]));
  }
}

// Fail fast, before any cell runs: a campaign that only discovers an
// unwritable export directory when its first point finishes has wasted
// every cell up to that moment.
void probeWritableDir(const std::string& dir, const char* what) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    throw std::invalid_argument(
        std::string(what) + " '" + dir + "' is not a creatable directory" +
        (ec ? " (" + ec.message() + ")" : "") +
        "; fix the path or permissions before launching the campaign");
  }
  const std::string probe = dir + "/.manet_write_probe";
  if (!util::atomicWriteFile(probe, "probe\n")) {
    throw std::invalid_argument(std::string(what) + " '" + dir +
                                "' is not writable; fix permissions before "
                                "launching the campaign");
  }
  fs::remove(probe, ec);
}

std::optional<std::string> slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The hidden --run-cell child protocol: execute exactly one cell of the
// (identically rebuilt) plan, atomically write its lossless result JSON,
// and leave the process — the supervising parent interprets files and exit
// codes, never partial output.
[[noreturn]] void runCellChild(const SweepPoint& point,
                               const RunnerOptions& opts, int reps,
                               std::size_t numPoints) {
  const SweepPoint* pt = &point;
  if (opts.runCellRep < 0 || opts.runCellRep >= reps) {
    std::fprintf(stderr, "--run-cell: rep %d out of range [0,%d)\n",
                 opts.runCellRep, reps);
    std::exit(2);
  }
  try {
    const ScenarioConfig cfg =
        taskConfig(*pt, opts.runCellRep, reps, numPoints);
    const RunResult r = opts.runFn ? opts.runFn(*pt, opts.runCellRep, cfg)
                                   : runScenario(cfg);
    if (!util::atomicWriteFile(opts.runCellOut, runResultToJournalJson(r))) {
      std::exit(3);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--run-cell %s r%d: %s\n", opts.runCellLabel.c_str(),
                 opts.runCellRep, e.what());
    std::exit(1);
  }
  std::exit(0);
}

// Warn-only watchdog for in-process cells: a thread cannot be killed
// safely, so an overdue cell gets a loud stderr note (once) instead of a
// SIGKILL — isolate-cells mode is the enforcing variant.
class InProcessWatchdog {
 public:
  InProcessWatchdog(double timeoutSec, std::size_t numTasks)
      : timeoutSec_(timeoutSec) {
    (void)numTasks;
    if (timeoutSec_ <= 0) return;
    thread_ = std::thread([this] { loop(); });
  }

  ~InProcessWatchdog() {
    if (!thread_.joinable()) return;
    {
      const util::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notifyAll();
    thread_.join();
  }

  void enter(std::size_t taskIdx, const std::string& label, int rep)
      EXCLUDES(mu_) {
    if (timeoutSec_ <= 0) return;
    // Wall-clock deadline over a real thread's elapsed time; unrelated to
    // simulated time and never fed back into the simulation.
    // manet-lint: allow(wall-clock): in-process cell watchdog
    const auto now = std::chrono::steady_clock::now();
    const util::MutexLock lock(mu_);
    active_[taskIdx] = {now, label, rep};
  }

  void leave(std::size_t taskIdx) EXCLUDES(mu_) {
    if (timeoutSec_ <= 0) return;
    const util::MutexLock lock(mu_);
    active_.erase(taskIdx);
    warned_.erase(taskIdx);
  }

 private:
  struct Cell {
    // manet-lint: allow(wall-clock): watchdog bookkeeping, reports only
    std::chrono::steady_clock::time_point start;
    std::string label;
    int rep = 0;
  };

  void loop() EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    while (!stop_) {
      cv_.waitFor(mu_, std::chrono::milliseconds(200));
      if (stop_) return;
      // manet-lint: allow(wall-clock): in-process cell watchdog
      const auto now = std::chrono::steady_clock::now();
      for (const auto& [idx, cell] : active_) {
        const double elapsed =
            std::chrono::duration<double>(now - cell.start).count();
        if (elapsed < timeoutSec_ || warned_.count(idx) != 0) continue;
        warned_.insert(idx);
        const util::MutexLock err(util::stderrMutex());
        std::fprintf(stderr,
                     "  WATCHDOG: cell %s r%d exceeded %.1fs (%.1fs elapsed); "
                     "cannot kill an in-process cell — rerun with "
                     "--isolate-cells to enforce the deadline\n",
                     cell.label.c_str(), cell.rep, timeoutSec_, elapsed);
      }
    }
  }

  const double timeoutSec_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::map<std::size_t, Cell> active_ GUARDED_BY(mu_);
  std::set<std::size_t> warned_ GUARDED_BY(mu_);
  std::thread thread_;
};

}  // namespace

const AggregateResult& SweepResult::at(std::string_view label) const {
  for (const PointResult& p : points) {
    if (p.point.label == label) return p.agg;
  }
  throw std::out_of_range("sweep result has no point labelled '" +
                          std::string(label) + "'");
}

int resolveJobs(int jobs) {
  if (jobs >= 1) return jobs;
  if (const char* v = std::getenv("MANET_JOBS"); v != nullptr && v[0] != '\0') {  // NOLINT(concurrency-mt-unsafe)
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

SweepResult runPlan(const ExperimentPlan& plan, RunnerOptions opts) {
  if (opts.replications < 1) {
    throw std::invalid_argument("experiment plan '" + plan.name() +
                                "': replications must be >= 1, got " +
                                std::to_string(opts.replications));
  }
  if (opts.maxAttempts < 1) {
    throw std::invalid_argument("runPlan: maxAttempts must be >= 1, got " +
                                std::to_string(opts.maxAttempts));
  }
  const std::vector<SweepPoint> points = plan.points();  // validates
  const int reps = opts.replications;

  // Child cell mode: run exactly one cell and leave the process. A label
  // that is not in THIS plan returns an empty result instead — benches
  // that execute several plans in sequence (e.g. the ablations) fall
  // through until the owning plan is reached; if none matches, the child
  // exits without writing its result file and the parent treats that as a
  // cell failure.
  if (!opts.runCellOut.empty()) {
    for (const SweepPoint& p : points) {
      if (p.label == opts.runCellLabel) {
        runCellChild(p, opts, reps, points.size());
      }
    }
    return SweepResult{};
  }

  if (opts.isolateCells && opts.selfCommand.empty()) {
    throw std::invalid_argument(
        "runPlan: isolateCells requires selfCommand (argv[0] plus "
        "plan-shaping flags, so cells can be re-executed in a child)");
  }
  if (opts.resume && opts.journalPath.empty()) {
    throw std::invalid_argument(
        "runPlan: resume requires a journal path (--journal FILE)");
  }

  const std::size_t numTasks = points.size() * static_cast<std::size_t>(reps);
  const int jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolveJobs(opts.jobs)),
                            numTasks));

  // Fail fast on unwritable artifact destinations before any cell runs.
  {
    std::set<std::string> dirs;
    for (const SweepPoint& p : points) {
      if (!p.config.telemetry.exportDir.empty()) {
        dirs.insert(p.config.telemetry.exportDir);
      }
    }
    for (const std::string& d : dirs) probeWritableDir(d, "export dir");
  }

  // Journal: load prior state for --resume, then append this campaign's
  // header — which doubles as the journal's own writability probe.
  std::unique_ptr<JournalWriter> journal;
  JournalState prior;
  if (!opts.journalPath.empty()) {
    if (opts.resume) prior = loadJournal(opts.journalPath);
    journal = std::make_unique<JournalWriter>(opts.journalPath);
    CampaignInfo info;
    info.plan = plan.name();
    info.points = points.size();
    info.replications = reps;
    info.codeVersion = codeVersion();
    info.cmd = opts.campaignCmd;
    if (!journal->campaign(info)) {
      throw std::invalid_argument(
          "journal '" + opts.journalPath +
          "' is not writable; fix the path or permissions before launching "
          "the campaign");
    }
    if (prior.corruptLines > 0) {
      std::fprintf(stderr,
                   "  journal %s: skipped %zu corrupt line(s) (crash tail); "
                   "resuming from the valid prefix\n",
                   opts.journalPath.c_str(), prior.corruptLines);
    }
  }

  // Preallocated result grid: workers write disjoint slots, so the only
  // shared mutable state is the task cursor.
  std::vector<std::vector<RunResult>> results(points.size());
  std::vector<std::vector<std::exception_ptr>> errors(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    results[p].resize(static_cast<std::size_t>(reps));
    errors[p].resize(static_cast<std::size_t>(reps));
  }
  std::vector<char> restoredFlag(numTasks, 0);
  std::vector<char> quarantinedFlag(numTasks, 0);
  std::vector<int> attemptsUsed(numTasks, 1);
  std::vector<std::string> cellErrors(numTasks);

  // Resume preload: restore every journaled cell whose key still matches
  // this build + config. A key mismatch (edited config, new code version)
  // silently re-runs the cell — stale results must never leak into a
  // campaign they no longer describe.
  std::size_t resumedCells = 0;
  if (opts.resume) {
    for (std::size_t t = 0; t < numTasks; ++t) {
      const std::size_t p = t / static_cast<std::size_t>(reps);
      const int rep = static_cast<int>(t % static_cast<std::size_t>(reps));
      const auto it = prior.cells.find({points[p].label, rep});
      if (it == prior.cells.end() || it->second.status != "done") continue;
      const ScenarioConfig cfg = taskConfig(points[p], rep, reps,
                                            points.size());
      if (it->second.key != cellKey(cfg)) continue;
      std::optional<RunResult> r =
          runResultFromJournalJson(it->second.resultJson);
      if (!r) continue;
      results[p][static_cast<std::size_t>(rep)] = std::move(*r);
      restoredFlag[t] = 1;
      ++resumedCells;
    }
    if (opts.progress && resumedCells > 0) {
      std::fprintf(stderr, "  resume: %zu/%zu cells restored from %s\n",
                   resumedCells, numTasks, opts.journalPath.c_str());
    }
  }

  std::atomic<std::size_t> nextTask{0};
  std::atomic<std::size_t> doneTasks{0};

  // Warn-only deadline for in-process cells; isolated cells get the real
  // SIGKILL watchdog inside runChildProcess.
  InProcessWatchdog watchdog(opts.isolateCells ? 0.0 : opts.cellTimeoutSec,
                             numTasks);

  const auto journalCell = [&](const SweepPoint& point, int rep,
                               const std::string& key,
                               const std::string& status, int attempts,
                               const std::string& error,
                               std::string resultJson) {
    if (!journal) return;
    JournalEntry e;
    e.label = point.label;
    e.rep = rep;
    e.key = key;
    e.status = status;
    e.attempts = attempts;
    e.error = error;
    e.resultJson = std::move(resultJson);
    journal->cell(e);
  };

  const auto runTask = [&](std::size_t taskIdx) {
    if (restoredFlag[taskIdx] != 0) return;
    const std::size_t pointIdx = taskIdx / static_cast<std::size_t>(reps);
    const int rep = static_cast<int>(taskIdx % static_cast<std::size_t>(reps));
    const SweepPoint& point = points[pointIdx];
    const ScenarioConfig cfg = taskConfig(point, rep, reps, points.size());
    const std::string key = journal ? cellKey(cfg) : std::string();
    for (int attempt = 1;; ++attempt) {
      attemptsUsed[taskIdx] = attempt;
      RunResult r;
      bool ok = false;
      std::string errMsg;
      if (opts.isolateCells) {
        const std::string outPath =
            (std::filesystem::temp_directory_path() /
             ("manet_cell_" + std::to_string(point.index) + "_r" +
              std::to_string(rep) + "_" + key + ".json"))
                .string();
        std::vector<std::string> argv = opts.selfCommand;
        argv.push_back("--run-cell");
        argv.push_back(point.label);
        argv.push_back(std::to_string(rep));
        argv.push_back(outPath);
        const ChildResult cr = runChildProcess(argv, opts.cellTimeoutSec);
        if (cr.ok()) {
          if (const std::optional<std::string> payload = slurpFile(outPath)) {
            std::string perr;
            if (std::optional<RunResult> parsed =
                    runResultFromJournalJson(*payload, &perr)) {
              r = std::move(*parsed);
              ok = true;
            } else {
              errMsg = "child result unreadable: " + perr;
            }
          } else {
            errMsg = "child exited 0 but wrote no result file";
          }
        } else {
          errMsg = cr.describe();
        }
        std::error_code ec;
        std::filesystem::remove(outPath, ec);
      } else {
        watchdog.enter(taskIdx, point.label, rep);
        try {
          r = opts.runFn ? opts.runFn(point, rep, cfg) : runScenario(cfg);
          ok = true;
        } catch (const std::exception& e) {
          errMsg = e.what();
          errors[pointIdx][static_cast<std::size_t>(rep)] =
              std::current_exception();
        } catch (...) {
          errMsg = "unknown exception";
          errors[pointIdx][static_cast<std::size_t>(rep)] =
              std::current_exception();
        }
        watchdog.leave(taskIdx);
      }
      if (ok) {
        // A retry that succeeds clears the earlier attempt's failure.
        errors[pointIdx][static_cast<std::size_t>(rep)] = nullptr;
        journalCell(point, rep, key, "done", attempt, "",
                    runResultToJournalJson(r));
        if (opts.progress) {
          const std::size_t done =
              doneTasks.fetch_add(1, std::memory_order_relaxed) + 1;
          const util::MutexLock lock(util::stderrMutex());
          std::fprintf(stderr,
                       "  [%zu/%zu] %s r%d: delivery %.3f, %.2fs wall\n",
                       done, numTasks, point.label.c_str(), rep,
                       r.metrics.packetDeliveryFraction(), r.wallSeconds);
        }
        results[pointIdx][static_cast<std::size_t>(rep)] = std::move(r);
        return;
      }
      if (attempt >= opts.maxAttempts) {
        cellErrors[taskIdx] = errMsg;
        if (opts.isolateCells) {
          quarantinedFlag[taskIdx] = 1;
          journalCell(point, rep, key, "quarantined", attempt, errMsg, "");
          const util::MutexLock lock(util::stderrMutex());
          std::fprintf(stderr, "  QUARANTINED %s r%d after %d attempt(s): %s\n",
                       point.label.c_str(), rep, attempt, errMsg.c_str());
        } else {
          journalCell(point, rep, key, "failed", attempt, errMsg, "");
        }
        return;
      }
      const double backoff =
          opts.retryBackoffSec * static_cast<double>(1 << (attempt - 1));
      {
        const util::MutexLock lock(util::stderrMutex());
        std::fprintf(stderr,
                     "  RETRY %s r%d (attempt %d/%d failed: %s); backing off "
                     "%.1fs\n",
                     point.label.c_str(), rep, attempt, opts.maxAttempts,
                     errMsg.c_str(), backoff);
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  };

  // Audited wall-clock read: brackets the whole sweep for throughput
  // reporting only (SweepResult::wallSeconds, a volatile field excluded
  // from deterministic exports); no simulation decision reads it.
  // manet-lint: allow(wall-clock): sweep timing for reports only
  const auto wallStart = std::chrono::steady_clock::now();
  if (jobs <= 1) {
    // Serial path: run in the calling thread, no pool — behaviourally the
    // legacy runReplicated loop (heartbeats, sinks and all).
    for (std::size_t t = 0; t < numTasks; ++t) runTask(t);
  } else {
    // Work-stealing pool: idle workers pull the next unclaimed task from
    // the shared cursor, so long cells (e.g. pause-0 high-mobility runs)
    // never leave a fixed shard of short ones idle.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t t =
              nextTask.fetch_add(1, std::memory_order_relaxed);
          if (t >= numTasks) return;
          runTask(t);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  // manet-lint: allow(wall-clock): sweep timing for reports only
  const auto wallEnd = std::chrono::steady_clock::now();

  // Failures surface deterministically: first failing cell in task order,
  // regardless of which worker hit it first.
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (const std::exception_ptr& e : errors[p]) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Deterministic merge: plan order, then seed order. Aggregation, onRun
  // observation and export all happen here, serially, so every artifact is
  // byte-identical no matter how the pool interleaved the runs. Quarantined
  // cells are excluded from aggregates and listed in the export, so a
  // degraded campaign's artifacts are self-describing.
  SweepResult out;
  out.jobs = jobs;
  out.replications = reps;
  out.resumedCells = resumedCells;
  out.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();
  out.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult pr;
    pr.point = points[p];
    std::vector<int> quarantinedReps;
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t t =
          p * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep);
      if (quarantinedFlag[t] != 0) {
        quarantinedReps.push_back(rep);
        out.quarantined.push_back(
            {pr.point.label, rep, attemptsUsed[t], cellErrors[t]});
        continue;
      }
      RunResult& r = results[p][static_cast<std::size_t>(rep)];
      addToAggregate(pr.agg, r);
      if (opts.onRun) opts.onRun(pr.point, rep, r);
      pr.agg.runs.push_back(std::move(r));
    }
    if (!pr.point.config.telemetry.exportDir.empty()) {
      telemetry::exportAggregate(pr.agg, pr.point.config, pr.point.label,
                                 quarantinedReps.empty() ? nullptr
                                                         : &quarantinedReps);
    }
    if (!opts.keepRuns) {
      // The aggregate and exports are complete; drop the per-run payloads
      // (sampled series, profiles) so big grids stay flat in memory.
      pr.agg.runs.clear();
      pr.agg.runs.shrink_to_fit();
    }
    out.points.push_back(std::move(pr));
  }
  return out;
}

std::string failureDigest(const SweepResult& result) {
  if (result.quarantined.empty()) return "";
  std::ostringstream os;
  os << "FAILURE DIGEST: " << result.quarantined.size() << " cell(s) "
     << "quarantined (excluded from aggregates):\n";
  for (const CellOutcome& c : result.quarantined) {
    os << "  " << c.label << " r" << c.rep << ": " << c.error << " ("
       << c.attempts << " attempt" << (c.attempts == 1 ? "" : "s") << ")\n";
  }
  os << "Inspect with `manet ctl failures <journal>`; a later run with "
        "--resume retries only the quarantined cells.\n";
  return os.str();
}

int reportFailures(const SweepResult& result) {
  const std::string digest = failureDigest(result);
  if (digest.empty()) return 0;
  std::fprintf(stderr, "%s", digest.c_str());
  return 1;
}

Table pointTable(const ExperimentPlan& plan, const SweepResult& result) {
  std::vector<std::string> header;
  for (const Axis& a : plan.axes()) header.push_back(a.name);
  for (const MetricColumn& m : plan.metrics()) header.push_back(m.name);
  Table table(header);
  for (const PointResult& p : result.points) {
    std::vector<std::string> row = p.point.coordinates;
    for (const MetricColumn& m : plan.metrics()) {
      row.push_back(Table::num(m.fn(p.agg), m.precision));
    }
    table.addRow(row);
  }
  return table;
}

Table pivotTable(const ExperimentPlan& plan, const SweepResult& result,
                 const std::string& metricName,
                 const std::string& rowHeader) {
  if (plan.axes().size() != 2) {
    throw std::invalid_argument("pivotTable needs exactly 2 axes, plan '" +
                                plan.name() + "' has " +
                                std::to_string(plan.axes().size()));
  }
  const MetricColumn* metric = nullptr;
  for (const MetricColumn& m : plan.metrics()) {
    if (m.name == metricName) metric = &m;
  }
  if (metric == nullptr) {
    throw std::invalid_argument("plan '" + plan.name() +
                                "' has no metric named '" + metricName + "'");
  }
  const Axis& rows = plan.axes()[0];
  const Axis& cols = plan.axes()[1];
  std::vector<std::string> header;
  header.push_back(rowHeader.empty() ? rows.name : rowHeader);
  for (const AxisValue& c : cols.values) header.push_back(c.label);
  Table table(header);
  // points() is row-major (first axis slowest), so the grid is contiguous.
  for (std::size_t r = 0; r < rows.values.size(); ++r) {
    std::vector<std::string> row{rows.values[r].label};
    for (std::size_t c = 0; c < cols.values.size(); ++c) {
      const PointResult& p =
          result.points[r * cols.values.size() + c];
      row.push_back(Table::num(metric->fn(p.agg), metric->precision));
    }
    table.addRow(row);
  }
  return table;
}

}  // namespace manet::scenario
