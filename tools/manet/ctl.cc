// manet ctl: inspect and aggregate experiment journals.
//
//   manet ctl status    JOURNAL...   campaign headers + cell counts
//   manet ctl failures  JOURNAL...   quarantined / failed cells with errors
//   manet ctl resume-cmd JOURNAL     command line to resume the campaign
//   manet ctl aggregate JOURNAL...   merge journaled results across
//                                    campaigns (content-hash keyed, latest
//                                    record per cell wins) into a metric
//                                    table
//
// Everything here reads the append-only JSONL journals written by runPlan
// (see src/scenario/journal.h); corrupt lines are skipped and reported,
// never fatal.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/scenario/journal.h"
#include "src/scenario/table.h"
#include "src/util/stats.h"
#include "tools/manet/commands.h"

namespace {

using manet::scenario::JournalEntry;
using manet::scenario::JournalState;
using manet::scenario::loadJournal;
using manet::scenario::runResultFromJournalJson;

int usage(int code) {
  std::fprintf(stderr,
               "usage: manet ctl <command> JOURNAL...\n"
               "  status      campaign headers and cell status counts\n"
               "  failures    quarantined/failed cells with their errors\n"
               "  resume-cmd  print the command to resume the last campaign\n"
               "  aggregate   merge journaled results into a metric table\n");
  return code;
}

std::vector<JournalState> loadAll(int argc, char** argv, int first) {
  std::vector<JournalState> states;
  for (int i = first; i < argc; ++i) {
    JournalState s = loadJournal(argv[i]);
    if (s.totalLines == 0) {
      std::fprintf(stderr, "manet ctl: %s: empty or missing journal\n",
                   argv[i]);
    }
    states.push_back(std::move(s));
  }
  return states;
}

int cmdStatus(int argc, char** argv) {
  if (argc < 3) return usage(2);
  for (int i = 2; i < argc; ++i) {
    const JournalState s = loadJournal(argv[i]);
    std::printf("%s:\n", argv[i]);
    if (s.totalLines == 0) {
      std::printf("  (empty or missing)\n");
      continue;
    }
    for (const auto& c : s.campaigns) {
      std::printf("  campaign '%s': %zu point(s) x %d rep(s), code %s\n",
                  c.plan.c_str(), c.points, c.replications,
                  c.codeVersion.c_str());
      if (!c.cmd.empty()) std::printf("    cmd: %s\n", c.cmd.c_str());
    }
    std::printf("  cells: %zu done, %zu quarantined, %zu failed",
                s.countStatus("done"), s.countStatus("quarantined"),
                s.countStatus("failed"));
    if (s.corruptLines > 0) {
      std::printf(" (%zu corrupt line(s) skipped)", s.corruptLines);
    }
    std::printf("\n");
  }
  return 0;
}

int cmdFailures(int argc, char** argv) {
  if (argc < 3) return usage(2);
  std::size_t bad = 0;
  for (int i = 2; i < argc; ++i) {
    const JournalState s = loadJournal(argv[i]);
    for (const auto& [key, e] : s.cells) {
      if (e.status == "done") continue;
      ++bad;
      std::printf("%s: %s r%d [%s] after %d attempt(s): %s\n", argv[i],
                  e.label.c_str(), e.rep, e.status.c_str(), e.attempts,
                  e.error.c_str());
    }
  }
  if (bad == 0) std::printf("no quarantined or failed cells\n");
  return bad == 0 ? 0 : 1;
}

int cmdResumeCmd(int argc, char** argv) {
  if (argc != 3) return usage(2);
  const JournalState s = loadJournal(argv[2]);
  if (s.campaigns.empty()) {
    std::fprintf(stderr, "manet ctl: %s has no campaign header\n", argv[2]);
    return 1;
  }
  const std::string& cmd = s.campaigns.back().cmd;
  if (cmd.empty()) {
    std::fprintf(stderr,
                 "manet ctl: campaign recorded no command line; re-run the "
                 "original invocation with --resume added\n");
    return 1;
  }
  std::string out = cmd;
  if (out.find("--resume") == std::string::npos) out += " --resume";
  std::printf("%s\n", out.c_str());
  return 0;
}

int cmdAggregate(int argc, char** argv) {
  if (argc < 3) return usage(2);
  const std::vector<JournalState> states = loadAll(argc, argv, 2);
  // Dedupe across campaigns by content key: the same (config, seed, code)
  // cell journaled twice — e.g. once in an interrupted run and once in its
  // resume — contributes a single result; later journals win.
  std::map<std::string, JournalEntry> byKey;
  for (const JournalState& s : states) {
    for (const auto& [cellId, e] : s.cells) {
      if (e.status != "done") continue;
      byKey[e.key] = e;
    }
  }
  struct LabelStats {
    manet::util::RunningStats delivery, delay, overhead;
    std::size_t n = 0;
  };
  std::map<std::string, LabelStats> byLabel;
  std::size_t unreadable = 0;
  for (const auto& [key, e] : byKey) {
    const std::optional<manet::scenario::RunResult> r =
        runResultFromJournalJson(e.resultJson);
    if (!r) {
      ++unreadable;
      continue;
    }
    LabelStats& ls = byLabel[e.label];
    ls.delivery.add(r->metrics.packetDeliveryFraction());
    ls.delay.add(r->metrics.avgDelaySec());
    ls.overhead.add(r->metrics.normalizedOverhead());
    ++ls.n;
  }
  if (unreadable > 0) {
    std::fprintf(stderr, "manet ctl: %zu journaled result(s) unreadable\n",
                 unreadable);
  }
  manet::scenario::Table table(
      {"label", "cells", "delivery", "delay_s", "overhead"});
  for (const auto& [label, ls] : byLabel) {
    table.addRow({label, std::to_string(ls.n),
                  manet::scenario::Table::num(ls.delivery.mean(), 3),
                  manet::scenario::Table::num(ls.delay.mean(), 4),
                  manet::scenario::Table::num(ls.overhead.mean(), 3)});
  }
  table.print("journaled results (" + std::to_string(byKey.size()) +
              " unique cells)");
  return 0;
}

}  // namespace

int manet::cli::ctlMain(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string cmd = argv[1];
  if (cmd == "status") return cmdStatus(argc, argv);
  if (cmd == "failures") return cmdFailures(argc, argv);
  if (cmd == "resume-cmd") return cmdResumeCmd(argc, argv);
  if (cmd == "aggregate") return cmdAggregate(argc, argv);
  if (cmd == "--help" || cmd == "-h") return usage(0);
  std::fprintf(stderr, "manet ctl: unknown command '%s'\n", cmd.c_str());
  return usage(2);
}
