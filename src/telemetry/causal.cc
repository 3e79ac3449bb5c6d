#include "src/telemetry/causal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <unordered_set>

#include "src/util/json.h"

namespace manet::telemetry {

namespace {

/// Store `obj[key]`, when present, in `out`. It must be a whole number
/// inside T's range: a string, a fraction, 1e300 or -1 for an unsigned
/// field is an error, never a silently wrapped value.
template <typename T>
bool readInt(const util::JsonValue& obj, const char* key, T& out,
             std::string& why) {
  if (util::readIntegerField(obj, key, out)) return true;
  why = std::string("\"") + key + "\" is not an integer in range";
  return false;
}

bool readFinite(const util::JsonValue& obj, const char* key, double& out,
                std::string& why) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->isNumber() || !std::isfinite(v->asNumber())) {
    why = std::string("\"") + key + "\" is not a finite number";
    return false;
  }
  out = v->asNumber();
  return true;
}

bool readString(const util::JsonValue& obj, const char* key,
                std::string& out, std::string& why) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->isString()) {
    why = std::string("\"") + key + "\" is not a string";
    return false;
  }
  out = v->asString();
  return true;
}

bool parseRecord(std::string_view line, CausalRecord& r, std::string& why) {
  const std::optional<util::JsonValue> doc = util::parseJson(line, &why);
  if (!doc) return false;
  if (!doc->isObject()) {
    why = "not a JSON object";
    return false;
  }
  const util::JsonValue* ev = doc->find("ev");
  if (ev == nullptr || !ev->isString()) {
    why = "no \"ev\" string (not a trace record)";
    return false;
  }
  r.event = ev->asString();
  return readFinite(*doc, "t", r.t, why) &&
         readString(*doc, "reason", r.reason, why) &&
         readString(*doc, "kind", r.kind, why) &&
         readString(*doc, "origin", r.origin, why) &&
         readFinite(*doc, "born", r.born, why) &&
         readInt(*doc, "node", r.node, why) &&
         readInt(*doc, "uid", r.uid, why) &&
         readInt(*doc, "cause", r.cause, why) &&
         readInt(*doc, "src", r.src, why) &&
         readInt(*doc, "dst", r.dst, why) &&
         readInt(*doc, "flow", r.flow, why) &&
         readInt(*doc, "detail", r.detail, why) &&
         readInt(*doc, "prov", r.prov, why) &&
         readInt(*doc, "pnode", r.provNode, why) &&
         readInt(*doc, "phops", r.provHops, why);
}

}  // namespace

TraceReadResult readTrace(std::istream& in) {
  TraceReadResult out;
  std::string line;
  std::string why;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    CausalRecord r;
    if (parseRecord(line, r, why)) {
      out.records.push_back(std::move(r));
    } else {
      out.errors.push_back("line " + std::to_string(lineNo) + ": " + why);
    }
  }
  return out;
}

std::optional<TraceReadResult> readTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return readTrace(in);
}

std::string_view ageBucketLabel(double ageSeconds) {
  if (ageSeconds < 1.0) return "<1s";
  if (ageSeconds < 2.0) return "1-2s";
  if (ageSeconds < 5.0) return "2-5s";
  if (ageSeconds < 10.0) return "5-10s";
  return ">=10s";
}

CausalIndex::CausalIndex(std::vector<CausalRecord> records) {
  for (CausalRecord& r : records) add(std::move(r));
}

void CausalIndex::add(CausalRecord r) {
  const std::size_t pos = records_.size();
  if (r.uid != 0) {
    byUid_[r.uid].push_back(pos);
    if (r.cause != 0 && r.cause != r.uid) {
      // First sighting wins; a packet has exactly one cause.
      causeOf_.try_emplace(r.uid, r.cause);
      auto& kids = childrenOf_[r.cause];
      if (std::find(kids.begin(), kids.end(), r.uid) == kids.end()) {
        kids.push_back(r.uid);
      }
    }
  }
  records_.push_back(std::move(r));
}

CausalRecord toCausalRecord(const TraceRecord& r) {
  CausalRecord c;
  c.t = r.at.toSeconds();
  c.event = toString(r.event);
  if (r.event == TraceEvent::kPktDrop) c.reason = toString(r.reason);
  c.node = r.node;
  if (r.uid != 0) {
    c.kind = net::toString(r.kind);
    c.flow = r.flowId;
  }
  c.uid = r.uid;
  c.cause = r.cause;
  c.src = r.src;
  c.dst = r.dst;
  c.detail = r.detail;
  c.prov = r.prov.id;
  if (r.prov.id != 0) {
    c.origin = net::toString(r.prov.origin);
    c.provNode = r.prov.insertedBy;
    c.born = r.prov.bornAt.toSeconds();
    c.provHops = r.prov.hopsAtInsert;
  }
  return c;
}

void CausalIndex::add(const TraceRecord& r) { add(toCausalRecord(r)); }

std::vector<const CausalRecord*> CausalIndex::packetRecords(
    std::uint64_t uid) const {
  std::vector<const CausalRecord*> out;
  auto it = byUid_.find(uid);
  if (it == byUid_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t pos : it->second) out.push_back(&records_[pos]);
  return out;
}

std::vector<std::uint64_t> CausalIndex::ancestry(std::uint64_t uid) const {
  std::vector<std::uint64_t> chain{uid};
  std::unordered_set<std::uint64_t> seen{uid};
  std::uint64_t cur = uid;
  for (;;) {
    auto it = causeOf_.find(cur);
    if (it == causeOf_.end()) break;
    cur = it->second;
    if (!seen.insert(cur).second) break;  // cycle guard
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::vector<std::uint64_t> CausalIndex::causedBy(std::uint64_t uid) const {
  auto it = childrenOf_.find(uid);
  if (it == childrenOf_.end()) return {};
  std::vector<std::uint64_t> kids = it->second;
  std::sort(kids.begin(), kids.end());
  return kids;
}

namespace {

void appendRecordLine(std::string& out, const CausalRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %.9f node=%u %s", r.t, r.node,
                r.event.c_str());
  out += buf;
  if (!r.kind.empty()) {
    out += " kind=";
    out += r.kind;
  }
  if (!r.reason.empty()) {
    out += " reason=";
    out += r.reason;
  }
  if (r.src != 0 || r.dst != 0) {
    std::snprintf(buf, sizeof(buf), " src=%u dst=%u", r.src, r.dst);
    out += buf;
  }
  if (r.cause != 0) {
    std::snprintf(buf, sizeof(buf), " cause=%" PRIu64, r.cause);
    out += buf;
  }
  if (r.prov != 0) {
    std::snprintf(buf, sizeof(buf),
                  " prov=%" PRIu64 "(%s by n%u born=%.9f hops=%u)", r.prov,
                  r.origin.c_str(), r.provNode, r.born, r.provHops);
    out += buf;
  }
  if (r.detail != 0) {
    std::snprintf(buf, sizeof(buf), " detail=%" PRId64, r.detail);
    out += buf;
  }
  out += '\n';
}

}  // namespace

std::string CausalIndex::renderChain(std::uint64_t uid) const {
  std::string out;
  char buf[128];
  const auto chain = ancestry(uid);
  std::snprintf(buf, sizeof(buf), "causal chain for uid %" PRIu64 " (%zu packet%s)\n",
                uid, chain.size(), chain.size() == 1 ? "" : "s");
  out += buf;
  for (std::uint64_t link : chain) {
    const auto recs = packetRecords(link);
    std::snprintf(buf, sizeof(buf), "packet %" PRIu64 "%s (%zu records)\n",
                  link, link == uid ? " *" : "", recs.size());
    out += buf;
    for (const CausalRecord* r : recs) appendRecordLine(out, *r);
  }
  const auto kids = causedBy(uid);
  if (!kids.empty()) {
    out += "caused:";
    for (std::uint64_t k : kids) {
      std::snprintf(buf, sizeof(buf), " %" PRIu64, k);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

StaleReport CausalIndex::staleReport() const {
  StaleReport rep;
  // (origin, bucket) -> drops; ordered so rows come out sorted.
  std::map<std::pair<std::string, std::string>, std::uint64_t> cells;
  std::set<std::uint64_t> entries;
  for (const CausalRecord& r : records_) {
    if (r.event != "pkt_drop" || r.kind != "DATA") continue;
    if (r.reason != "link_fail_no_salvage" && r.reason != "negative_cache") {
      continue;
    }
    ++rep.staleDrops;
    if (r.prov == 0) continue;
    ++rep.attributed;
    entries.insert(r.prov);
    const double age = r.t - r.born;
    ++cells[{r.origin, std::string(ageBucketLabel(age))}];
  }
  rep.distinctEntries = entries.size();
  rep.rows.reserve(cells.size());
  for (const auto& [key, count] : cells) {
    rep.rows.push_back(StaleReport::Row{key.first, key.second, count});
  }
  return rep;
}

std::string StaleReport::render() const {
  std::string out;
  char buf[160];
  out += "stale-route drop attribution (origin x entry age at drop)\n";
  std::snprintf(buf, sizeof(buf), "%-18s %-8s %10s\n", "origin", "age",
                "drops");
  out += buf;
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-18s %-8s %10" PRIu64 "\n",
                  r.origin.c_str(), r.ageBucket.c_str(), r.drops);
    out += buf;
  }
  const double pct = staleDrops == 0
                         ? 100.0
                         : 100.0 * static_cast<double>(attributed) /
                               static_cast<double>(staleDrops);
  std::snprintf(buf, sizeof(buf),
                "stale drops: %" PRIu64 "  attributed: %" PRIu64
                " (%.1f%%)  distinct entries: %" PRIu64 "\n",
                staleDrops, attributed, pct, distinctEntries);
  out += buf;
  return out;
}

}  // namespace manet::telemetry
