#include "src/prof/bench_report.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/json.h"

namespace manet::prof {

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void kvNum(std::string& out, const char* key, double v, bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", first ? "" : ",", key, v);
  out += buf;
}

void kvU64(std::string& out, const char* key, std::uint64_t v,
           bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                v);
  out += buf;
}

std::uint64_t u64At(const util::JsonValue& obj, std::string_view key) {
  const double d = obj.numberAt(key, 0.0);
  return d <= 0.0 ? 0 : static_cast<std::uint64_t>(d);
}

std::vector<HistBucket> parseBuckets(const util::JsonValue& obj,
                                     std::string_view key) {
  std::vector<HistBucket> out;
  const util::JsonValue* arr = obj.find(key);
  if (arr == nullptr || !arr->isArray()) return out;
  for (const util::JsonValue& row : arr->asArray()) {
    if (!row.isArray() || row.asArray().size() != 3) continue;
    const auto& v = row.asArray();
    out.push_back(HistBucket{
        static_cast<std::uint64_t>(v[0].asNumber()),
        static_cast<std::uint64_t>(v[1].asNumber()),
        static_cast<std::uint64_t>(v[2].asNumber())});
  }
  return out;
}

void appendHotspot(std::string& out, const BenchScenario& s) {
  char buf[256];
  out += ",\"hotspot\":{\"top_nodes\":[";
  for (std::size_t i = 0; i < s.topNodes.size(); ++i) {
    const BenchTopNode& n = s.topNodes[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"node\":%u,\"x\":%.9g,\"y\":%.9g"
                  ",\"activations\":%" PRIu64 ",\"frames_heard\":%" PRIu64
                  ",\"self_seconds\":%.9g}",
                  i > 0 ? "," : "", n.node, n.x, n.y, n.activations,
                  n.framesHeard, n.selfSeconds);
    out += buf;
  }
  out += "],";
  appendHotspotSections(out, s.fanout, s.queue, s.alloc);
  out += "}";
}

void parseHotspot(const util::JsonValue& hv, BenchScenario& s) {
  s.hasHotspot = true;
  if (const util::JsonValue* nodes = hv.find("top_nodes");
      nodes != nullptr && nodes->isArray()) {
    for (const util::JsonValue& nv : nodes->asArray()) {
      if (!nv.isObject()) continue;
      BenchTopNode n;
      n.node = static_cast<std::uint32_t>(nv.numberAt("node", 0.0));
      n.x = nv.numberAt("x", 0.0);
      n.y = nv.numberAt("y", 0.0);
      n.activations = u64At(nv, "activations");
      n.framesHeard = u64At(nv, "frames_heard");
      n.selfSeconds = nv.numberAt("self_seconds", 0.0);
      s.topNodes.push_back(n);
    }
  }
  if (const util::JsonValue* fv = hv.find("fanout");
      fv != nullptr && fv->isObject()) {
    s.fanout.transmissions = u64At(*fv, "transmissions");
    s.fanout.radiosExamined = u64At(*fv, "radios_examined");
    s.fanout.radiosInRange = u64At(*fv, "radios_in_range");
    s.fanout.maxInRange = u64At(*fv, "max_in_range");
    s.fanout.p50 = fv->numberAt("p50", 0.0);
    s.fanout.p90 = fv->numberAt("p90", 0.0);
    s.fanout.p99 = fv->numberAt("p99", 0.0);
    s.fanout.buckets = parseBuckets(*fv, "buckets");
  }
  if (const util::JsonValue* qv = hv.find("queue");
      qv != nullptr && qv->isObject()) {
    s.queue.scheduled = u64At(*qv, "scheduled");
    s.queue.zeroHorizon = u64At(*qv, "zero_horizon");
    s.queue.maxHorizonNs = u64At(*qv, "max_horizon_ns");
    s.queue.horizonP50Ns = qv->numberAt("horizon_p50_ns", 0.0);
    s.queue.horizonP90Ns = qv->numberAt("horizon_p90_ns", 0.0);
    s.queue.horizonP99Ns = qv->numberAt("horizon_p99_ns", 0.0);
    s.queue.horizonBuckets = parseBuckets(*qv, "horizon_buckets");
    s.queue.depthPeak = u64At(*qv, "depth_peak");
    s.queue.depthMean = qv->numberAt("depth_mean", 0.0);
    if (const util::JsonValue* dv = qv->find("depth_samples");
        dv != nullptr && dv->isArray()) {
      for (const util::JsonValue& row : dv->asArray()) {
        if (!row.isArray() || row.asArray().size() != 2) continue;
        const auto& v = row.asArray();
        s.queue.depthSamples.push_back(QueueSample{
            static_cast<std::int64_t>(v[0].asNumber()),
            static_cast<std::uint64_t>(v[1].asNumber())});
      }
    }
  }
  if (const util::JsonValue* av = hv.find("alloc");
      av != nullptr && av->isObject()) {
    for (std::size_t a = 0; a < kNumAllocSites; ++a) {
      const util::JsonValue* sv =
          av->find(toString(static_cast<AllocSite>(a)));
      if (sv == nullptr || !sv->isObject()) continue;
      s.alloc[a].count = u64At(*sv, "count");
      s.alloc[a].bytes = u64At(*sv, "bytes");
      s.alloc[a].live = u64At(*sv, "live");
      s.alloc[a].highWater = u64At(*sv, "high_water");
    }
  }
}

}  // namespace

const BenchScenario* BenchReport::find(const std::string& name) const {
  for (const BenchScenario& s : scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string toJson(const BenchReport& r) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(r.schemaVersion);
  out += ",\"label\":";
  appendEscaped(out, r.label);
  out += ",\"scenarios\":[";
  for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
    const BenchScenario& s = r.scenarios[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    appendEscaped(out, s.name);
    kvU64(out, "repetitions", static_cast<std::uint64_t>(s.repetitions));
    kvU64(out, "events", s.events);
    kvNum(out, "wall_seconds_median", s.wallSecondsMedian);
    kvNum(out, "events_per_sec_median", s.eventsPerSecMedian);
    out += ",\"wall_seconds_all\":[";
    for (std::size_t j = 0; j < s.wallSecondsAll.size(); ++j) {
      if (j > 0) out += ',';
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.9g", s.wallSecondsAll[j]);
      out += buf;
    }
    out += ']';
    kvU64(out, "peak_rss_bytes", s.peakRssBytes);
    kvU64(out, "sched_queue_peak", s.schedQueuePeak);
    out += ",\"category_self_seconds\":{";
    for (std::size_t j = 0; j < s.categorySelfSeconds.size(); ++j) {
      if (j > 0) out += ',';
      appendEscaped(out, s.categorySelfSeconds[j].first);
      char buf[48];
      std::snprintf(buf, sizeof(buf), ":%.9g",
                    s.categorySelfSeconds[j].second);
      out += buf;
    }
    out += '}';
    if (s.hasHotspot) appendHotspot(out, s);
    out += '}';
  }
  out += "]}";
  return out;
}

std::optional<BenchReport> parseBenchReport(std::string_view text,
                                            std::string* err) {
  const std::optional<util::JsonValue> doc = util::parseJson(text, err);
  if (!doc) return std::nullopt;
  if (!doc->isObject()) {
    if (err != nullptr) *err = "BENCH document is not a JSON object";
    return std::nullopt;
  }
  BenchReport r;
  r.schemaVersion = static_cast<int>(doc->numberAt("schema_version", 0.0));
  if (r.schemaVersion < kBenchMinSchemaVersion ||
      r.schemaVersion > kBenchSchemaVersion) {
    if (err != nullptr) {
      *err = "unsupported BENCH schema_version " +
             std::to_string(r.schemaVersion) + " (supported: " +
             std::to_string(kBenchMinSchemaVersion) + ".." +
             std::to_string(kBenchSchemaVersion) + ")";
    }
    return std::nullopt;
  }
  r.label = doc->stringAt("label");
  const util::JsonValue* scenarios = doc->find("scenarios");
  if (scenarios != nullptr && scenarios->isArray()) {
    for (const util::JsonValue& sv : scenarios->asArray()) {
      if (!sv.isObject()) continue;
      BenchScenario s;
      s.name = sv.stringAt("name");
      s.repetitions = static_cast<int>(sv.numberAt("repetitions", 0.0));
      s.events = u64At(sv, "events");
      s.wallSecondsMedian = sv.numberAt("wall_seconds_median", 0.0);
      s.eventsPerSecMedian = sv.numberAt("events_per_sec_median", 0.0);
      if (const util::JsonValue* all = sv.find("wall_seconds_all");
          all != nullptr && all->isArray()) {
        for (const util::JsonValue& w : all->asArray()) {
          s.wallSecondsAll.push_back(w.asNumber());
        }
      }
      s.peakRssBytes = u64At(sv, "peak_rss_bytes");
      s.schedQueuePeak = u64At(sv, "sched_queue_peak");
      if (const util::JsonValue* cats = sv.find("category_self_seconds");
          cats != nullptr && cats->isObject()) {
        for (const auto& [name, secs] : cats->asObject()) {
          s.categorySelfSeconds.emplace_back(name, secs.asNumber());
        }
      }
      if (const util::JsonValue* hv = sv.find("hotspot");
          hv != nullptr && hv->isObject()) {
        parseHotspot(*hv, s);
      }
      r.scenarios.push_back(std::move(s));
    }
  }
  return r;
}

BenchComparison compareBenchReports(const BenchReport& baseline,
                                    const BenchReport& candidate,
                                    double threshold) {
  BenchComparison c;
  c.threshold = threshold;
  for (const BenchScenario& base : baseline.scenarios) {
    const BenchScenario* cand = candidate.find(base.name);
    if (cand == nullptr) {
      c.onlyInBaseline.push_back(base.name);
      continue;
    }
    BenchComparisonRow row;
    row.name = base.name;
    row.baselineWallSec = base.wallSecondsMedian;
    row.candidateWallSec = cand->wallSecondsMedian;
    row.baselineEventsPerSec = base.eventsPerSecMedian;
    row.candidateEventsPerSec = cand->eventsPerSecMedian;
    row.wallRatio = base.wallSecondsMedian > 0.0
                        ? cand->wallSecondsMedian / base.wallSecondsMedian
                        : 0.0;
    row.regressed = base.wallSecondsMedian > 0.0 &&
                    cand->wallSecondsMedian >
                        base.wallSecondsMedian * (1.0 + threshold);
    // Name the category whose self time grew the most, so a tripped
    // threshold reports *what* regressed, not just that something did.
    double worstDelta = 0.0;
    for (const auto& [catName, candSec] : cand->categorySelfSeconds) {
      double baseSec = 0.0;
      for (const auto& [bn, bs] : base.categorySelfSeconds) {
        if (bn == catName) {
          baseSec = bs;
          break;
        }
      }
      const double delta = candSec - baseSec;
      if (row.worstCategory.empty() || delta > worstDelta) {
        worstDelta = delta;
        row.worstCategory = catName;
        row.worstCategoryBaseSec = baseSec;
        row.worstCategoryCandSec = candSec;
      }
    }
    if (row.regressed) c.regressed = true;
    c.rows.push_back(std::move(row));
  }
  for (const BenchScenario& cand : candidate.scenarios) {
    if (baseline.find(cand.name) == nullptr) {
      c.onlyInCandidate.push_back(cand.name);
    }
  }
  return c;
}

std::string formatComparison(const BenchComparison& c) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-24s %12s %12s %8s  %s\n", "scenario",
                "base wall s", "cand wall s", "ratio", "verdict");
  out += buf;
  for (const BenchComparisonRow& row : c.rows) {
    std::snprintf(buf, sizeof(buf), "%-24s %12.3f %12.3f %8.3f  %s\n",
                  row.name.c_str(), row.baselineWallSec, row.candidateWallSec,
                  row.wallRatio,
                  row.regressed ? "REGRESSED" : "ok");
    out += buf;
  }
  for (const BenchComparisonRow& row : c.rows) {
    if (!row.regressed) continue;
    std::snprintf(
        buf, sizeof(buf),
        "REGRESSED: %s wall time %.6fs -> %.6fs (%+.1f%%, threshold "
        "+%.0f%%)\n",
        row.name.c_str(), row.baselineWallSec, row.candidateWallSec,
        (row.wallRatio - 1.0) * 100.0, c.threshold * 100.0);
    out += buf;
    if (!row.worstCategory.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "  worst category: %s self time %.6fs -> %.6fs\n",
                    row.worstCategory.c_str(), row.worstCategoryBaseSec,
                    row.worstCategoryCandSec);
      out += buf;
    }
  }
  for (const std::string& name : c.onlyInBaseline) {
    std::snprintf(buf, sizeof(buf), "%-24s missing from candidate\n",
                  name.c_str());
    out += buf;
  }
  for (const std::string& name : c.onlyInCandidate) {
    std::snprintf(buf, sizeof(buf), "%-24s missing from baseline\n",
                  name.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "threshold: +%.0f%% wall time; overall: %s\n",
                c.threshold * 100.0,
                c.regressed ? "REGRESSION DETECTED" : "within threshold");
  out += buf;
  return out;
}

namespace {

void diffU64(std::vector<std::string>& out, const std::string& scen,
             const char* field, std::uint64_t a, std::uint64_t b) {
  if (a == b) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %s %" PRIu64 " != %" PRIu64,
                scen.c_str(), field, a, b);
  out.emplace_back(buf);
}

void diffNum(std::vector<std::string>& out, const std::string& scen,
             const char* field, double a, double b) {
  if (a == b) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %s %.9g != %.9g", scen.c_str(), field,
                a, b);
  out.emplace_back(buf);
}

void diffBuckets(std::vector<std::string>& out, const std::string& scen,
                 const char* field, const std::vector<HistBucket>& a,
                 const std::vector<HistBucket>& b) {
  char buf[192];
  if (a.size() != b.size()) {
    std::snprintf(buf, sizeof(buf), "%s: %s bucket count %zu != %zu",
                  scen.c_str(), field, a.size(), b.size());
    out.emplace_back(buf);
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].low == b[i].low && a[i].high == b[i].high &&
        a[i].count == b[i].count) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s: %s bucket [%" PRIu64 ",%" PRIu64 ") count %" PRIu64
                  " != [%" PRIu64 ",%" PRIu64 ") count %" PRIu64,
                  scen.c_str(), field, a[i].low, a[i].high, a[i].count,
                  b[i].low, b[i].high, b[i].count);
    out.emplace_back(buf);
  }
}

}  // namespace

std::vector<std::string> diffBenchReports(const BenchReport& a,
                                          const BenchReport& b) {
  std::vector<std::string> out;
  for (const BenchScenario& s : a.scenarios) {
    if (b.find(s.name) == nullptr) {
      out.push_back(s.name + ": only in first report");
    }
  }
  for (const BenchScenario& s : b.scenarios) {
    if (a.find(s.name) == nullptr) {
      out.push_back(s.name + ": only in second report");
    }
  }
  for (const BenchScenario& sa : a.scenarios) {
    const BenchScenario* sbp = b.find(sa.name);
    if (sbp == nullptr) continue;
    const BenchScenario& sb = *sbp;
    const std::string& n = sa.name;
    diffU64(out, n, "events", sa.events, sb.events);
    diffU64(out, n, "sched_queue_peak", sa.schedQueuePeak, sb.schedQueuePeak);
    if (sa.hasHotspot != sb.hasHotspot) {
      out.push_back(n + ": hotspot section present in only one report");
      continue;
    }
    if (!sa.hasHotspot) continue;
    if (sa.topNodes.size() != sb.topNodes.size()) {
      diffU64(out, n, "top_nodes size", sa.topNodes.size(),
              sb.topNodes.size());
    } else {
      for (std::size_t i = 0; i < sa.topNodes.size(); ++i) {
        const BenchTopNode& ta = sa.topNodes[i];
        const BenchTopNode& tb = sb.topNodes[i];
        char field[64];
        std::snprintf(field, sizeof(field), "top_nodes[%zu].node", i);
        diffU64(out, n, field, ta.node, tb.node);
        std::snprintf(field, sizeof(field), "top_nodes[%zu].activations", i);
        diffU64(out, n, field, ta.activations, tb.activations);
        std::snprintf(field, sizeof(field), "top_nodes[%zu].frames_heard", i);
        diffU64(out, n, field, ta.framesHeard, tb.framesHeard);
        std::snprintf(field, sizeof(field), "top_nodes[%zu].x", i);
        diffNum(out, n, field, ta.x, tb.x);
        std::snprintf(field, sizeof(field), "top_nodes[%zu].y", i);
        diffNum(out, n, field, ta.y, tb.y);
        // selfSeconds is wall time: informational only, never diffed.
      }
    }
    diffU64(out, n, "fanout.transmissions", sa.fanout.transmissions,
            sb.fanout.transmissions);
    diffU64(out, n, "fanout.radios_examined", sa.fanout.radiosExamined,
            sb.fanout.radiosExamined);
    diffU64(out, n, "fanout.radios_in_range", sa.fanout.radiosInRange,
            sb.fanout.radiosInRange);
    diffU64(out, n, "fanout.max_in_range", sa.fanout.maxInRange,
            sb.fanout.maxInRange);
    diffNum(out, n, "fanout.p50", sa.fanout.p50, sb.fanout.p50);
    diffNum(out, n, "fanout.p90", sa.fanout.p90, sb.fanout.p90);
    diffNum(out, n, "fanout.p99", sa.fanout.p99, sb.fanout.p99);
    diffBuckets(out, n, "fanout", sa.fanout.buckets, sb.fanout.buckets);
    diffU64(out, n, "queue.scheduled", sa.queue.scheduled,
            sb.queue.scheduled);
    diffU64(out, n, "queue.zero_horizon", sa.queue.zeroHorizon,
            sb.queue.zeroHorizon);
    diffU64(out, n, "queue.max_horizon_ns", sa.queue.maxHorizonNs,
            sb.queue.maxHorizonNs);
    diffNum(out, n, "queue.horizon_p50_ns", sa.queue.horizonP50Ns,
            sb.queue.horizonP50Ns);
    diffNum(out, n, "queue.horizon_p90_ns", sa.queue.horizonP90Ns,
            sb.queue.horizonP90Ns);
    diffNum(out, n, "queue.horizon_p99_ns", sa.queue.horizonP99Ns,
            sb.queue.horizonP99Ns);
    diffBuckets(out, n, "horizon", sa.queue.horizonBuckets,
                sb.queue.horizonBuckets);
    diffU64(out, n, "queue.depth_peak", sa.queue.depthPeak,
            sb.queue.depthPeak);
    diffNum(out, n, "queue.depth_mean", sa.queue.depthMean,
            sb.queue.depthMean);
    if (sa.queue.depthSamples.size() != sb.queue.depthSamples.size()) {
      diffU64(out, n, "queue.depth_samples size", sa.queue.depthSamples.size(),
              sb.queue.depthSamples.size());
    } else {
      for (std::size_t i = 0; i < sa.queue.depthSamples.size(); ++i) {
        if (sa.queue.depthSamples[i].simNs == sb.queue.depthSamples[i].simNs &&
            sa.queue.depthSamples[i].depth ==
                sb.queue.depthSamples[i].depth) {
          continue;
        }
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "%s: queue.depth_samples[%zu] (%" PRId64 ",%" PRIu64
                      ") != (%" PRId64 ",%" PRIu64 ")",
                      n.c_str(), i, sa.queue.depthSamples[i].simNs,
                      sa.queue.depthSamples[i].depth,
                      sb.queue.depthSamples[i].simNs,
                      sb.queue.depthSamples[i].depth);
        out.emplace_back(buf);
      }
    }
    for (std::size_t site = 0; site < kNumAllocSites; ++site) {
      char field[64];
      const char* siteName = toString(static_cast<AllocSite>(site));
      std::snprintf(field, sizeof(field), "alloc.%s.count", siteName);
      diffU64(out, n, field, sa.alloc[site].count, sb.alloc[site].count);
      std::snprintf(field, sizeof(field), "alloc.%s.bytes", siteName);
      diffU64(out, n, field, sa.alloc[site].bytes, sb.alloc[site].bytes);
      std::snprintf(field, sizeof(field), "alloc.%s.live", siteName);
      diffU64(out, n, field, sa.alloc[site].live, sb.alloc[site].live);
      std::snprintf(field, sizeof(field), "alloc.%s.high_water", siteName);
      diffU64(out, n, field, sa.alloc[site].highWater,
              sb.alloc[site].highWater);
    }
  }
  return out;
}

}  // namespace manet::prof
