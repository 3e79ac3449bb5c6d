// manet trace: offline analysis of JSONL traces.
//
// Run any scenario or bench with MANET_TRACE_JSONL=<path>, then ask the
// trace the questions the end-of-run counters cannot answer:
//
//   manet trace <trace.jsonl>                   summary: record/event totals,
//                                               drop reasons, fault timeline,
//                                               per-flow lifecycle
//   manet trace <trace.jsonl> --chain <uid>     full causal chain of one
//                                               packet: ancestry back to the
//                                               application packet that
//                                               started it, every record of
//                                               every packet on the chain,
//                                               and the packets it caused
//   manet trace <trace.jsonl> --stale-report    attribute every stale-route
//                                               drop to the cache insertion
//                                               that supplied the route
//                                               (origin x entry-age table)
//   manet trace <trace.jsonl> --perfetto <out>  convert the trace to a
//                                               Perfetto / chrome://tracing
//                                               timeline (trace_event JSON)
//
// Malformed lines (e.g. the truncated tail of a killed run) are reported to
// stderr with line numbers and skipped; analysis runs on the valid rest.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/causal.h"
#include "src/telemetry/perfetto.h"
#include "tools/manet/commands.h"

using namespace manet;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: manet trace <trace.jsonl> [--summary] [--chain <uid>]"
               " [--stale-report] [--perfetto <out.json>]\n");
  return 2;
}

struct FlowStats {
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::map<std::string, std::uint64_t> dropsByReason;
};

/// One line of the fault timeline, or "" for a non-fault record.
std::string describeFault(const telemetry::CausalRecord& r) {
  if (!telemetry::perfettoIsFaultEvent(r.event)) return {};
  const double seconds = static_cast<double>(r.detail) / 1e9;
  char buf[128];
  if (r.event == "node_crash") {
    std::snprintf(buf, sizeof(buf), "node %u crashed", r.node);
  } else if (r.event == "node_recover") {
    std::snprintf(buf, sizeof(buf), "node %u recovered%s", r.node,
                  r.detail != 0 ? " (caches wiped)" : "");
  } else if (r.event == "link_blackout") {
    std::snprintf(buf, sizeof(buf), "link %u->%u blacked out for %.3f s",
                  r.src, r.dst, seconds);
  } else if (r.event == "noise_burst") {
    std::snprintf(buf, sizeof(buf), "noise burst for %.3f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "traffic surge for %.3f s", seconds);
  }
  return buf;
}

void printSummary(const telemetry::CausalIndex& idx) {
  std::map<std::string, std::uint64_t> events;
  std::map<std::string, std::uint64_t> drops;
  std::map<std::uint32_t, FlowStats> flows;
  std::vector<std::pair<double, std::string>> faults;
  std::uint64_t packetScoped = 0;
  std::uint64_t withCause = 0;
  std::uint64_t withProv = 0;
  double firstT = 0.0, lastT = 0.0;
  bool any = false;
  for (const telemetry::CausalRecord& r : idx.records()) {
    ++events[r.event];
    if (!any) firstT = r.t;
    lastT = r.t;
    any = true;
    if (r.uid != 0) ++packetScoped;
    if (r.cause != 0) ++withCause;
    if (r.prov != 0) ++withProv;
    if (r.event == "pkt_drop") ++drops[r.reason];
    if (std::string what = describeFault(r); !what.empty()) {
      faults.emplace_back(r.t, std::move(what));
    }
    // Packet-scoped records are the ones that carry a flow id.
    if (r.uid == 0) continue;
    if (r.event == "pkt_originate") {
      ++flows[r.flow].originated;
    } else if (r.event == "pkt_deliver") {
      ++flows[r.flow].delivered;
    } else if (r.event == "pkt_drop") {
      ++flows[r.flow].dropsByReason[r.reason];
    }
  }
  std::printf("%zu records, t = [%.3f s, %.3f s]\n", idx.records().size(),
              firstT, lastT);
  std::printf("packet-scoped %" PRIu64 ", with cause link %" PRIu64
              ", with provenance %" PRIu64 "\n\n",
              packetScoped, withCause, withProv);
  std::printf("event totals:\n");
  for (const auto& [ev, n] : events) {
    std::printf("  %-18s %10" PRIu64 "\n", ev.c_str(), n);
  }
  if (!drops.empty()) {
    std::printf("\ndrop reasons:\n");
    for (const auto& [why, n] : drops) {
      std::printf("  %-22s %10" PRIu64 "\n", why.c_str(), n);
    }
  }

  if (!faults.empty()) {
    std::printf("\nfault timeline (%zu events):\n", faults.size());
    // Show at most the first 40 entries; long churn runs get noisy.
    const std::size_t shown = std::min<std::size_t>(faults.size(), 40);
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf("  t=%9.3f s  %s\n", faults[i].first,
                  faults[i].second.c_str());
    }
    if (shown < faults.size()) {
      std::printf("  ... %zu more\n", faults.size() - shown);
    }
  }

  std::printf("\nper-flow lifecycle (flow: originated -> delivered, drops by"
              " reason):\n");
  for (const auto& [flowId, fs] : flows) {
    const std::uint64_t lost =
        fs.originated > fs.delivered ? fs.originated - fs.delivered : 0;
    std::printf("  flow %2u: %6" PRIu64 " -> %6" PRIu64
                "  (%5.1f%% delivered, %" PRIu64 " lost)\n",
                flowId, fs.originated, fs.delivered,
                fs.originated > 0 ? 100.0 * static_cast<double>(fs.delivered) /
                                        static_cast<double>(fs.originated)
                                  : 0.0,
                lost);
    for (const auto& [why, n] : fs.dropsByReason) {
      std::printf("           %-22s %6" PRIu64 "\n", why.c_str(), n);
    }
  }

  // Sanity line mirroring the reconcile test. mac_duplicate drops are
  // redundant copies (the original frame was also received), so they don't
  // count against originated packets.
  std::uint64_t dropped = 0;
  for (const auto& [why, n] : drops) {
    if (why != "mac_duplicate") dropped += n;
  }
  const std::uint64_t orig = events["pkt_originate"];
  const std::uint64_t deliv = events["pkt_deliver"];
  std::printf("\noriginated %" PRIu64 ", delivered %" PRIu64
              ", dropped %" PRIu64 " (in-flight/buffered at end: %" PRId64
              ")\n",
              orig, deliv, dropped,
              static_cast<std::int64_t>(orig) -
                  static_cast<std::int64_t>(deliv) -
                  static_cast<std::int64_t>(dropped));
}

}  // namespace

int manet::cli::traceMain(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") return usage();

  bool summary = false;
  bool staleReport = false;
  std::vector<std::uint64_t> chains;
  std::string perfettoOut;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--summary") {
      summary = true;
    } else if (arg == "--stale-report") {
      staleReport = true;
    } else if (arg == "--chain" && i + 1 < argc) {
      char* end = nullptr;
      const std::uint64_t uid = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || uid == 0) {
        std::fprintf(stderr, "--chain: '%s' is not a packet uid\n", argv[i]);
        return 2;
      }
      chains.push_back(uid);
    } else if (arg == "--perfetto" && i + 1 < argc) {
      perfettoOut = argv[++i];
    } else {
      return usage();
    }
  }
  if (!summary && !staleReport && chains.empty() && perfettoOut.empty()) {
    summary = true;  // bare invocation: summarise
  }

  std::optional<telemetry::TraceReadResult> read = telemetry::readTrace(path);
  if (!read) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  if (!read->errors.empty()) {
    std::fprintf(stderr, "%s: skipped %zu malformed line(s):\n", path.c_str(),
                 read->errors.size());
    for (const std::string& e : read->errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
  }

  const telemetry::CausalIndex idx(std::move(read->records));

  if (summary) printSummary(idx);

  for (std::uint64_t uid : chains) {
    if (idx.packetRecords(uid).empty()) {
      std::fprintf(stderr, "no records for packet uid %" PRIu64 "\n", uid);
      return 1;
    }
    std::fputs(idx.renderChain(uid).c_str(), stdout);
  }

  if (staleReport) {
    std::fputs(idx.staleReport().render().c_str(), stdout);
  }

  if (!perfettoOut.empty()) {
    const long n = telemetry::convertJsonlToPerfetto(idx.records(),
                                                     perfettoOut);
    if (n < 0) {
      std::fprintf(stderr, "cannot write %s\n", perfettoOut.c_str());
      return 1;
    }
    std::printf("wrote %ld timeline events to %s\n", n, perfettoOut.c_str());
  }
  return 0;
}
