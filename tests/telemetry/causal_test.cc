// Causal layer unit tests: live-record projection, ancestry / child walks,
// chain rendering, the stale-drop attribution report, and readTrace, the
// validating JSONL reader feeding all of it (including a seeded mutation
// test over a real trace).
#include "src/telemetry/causal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/telemetry/trace.h"
#include "src/util/json.h"

namespace manet::telemetry {
namespace {

/// readTrace over in-memory JSONL text.
TraceReadResult readText(const std::string& text) {
  std::istringstream in(text);
  return readTrace(in);
}

CausalRecord rec(double t, const char* event, std::uint64_t uid,
                 std::uint64_t cause = 0) {
  CausalRecord r;
  r.t = t;
  r.event = event;
  r.uid = uid;
  r.cause = cause;
  return r;
}

// ----------------------------------------------------------- age buckets

TEST(CausalTest, AgeBucketBoundaries) {
  EXPECT_EQ(ageBucketLabel(0.0), "<1s");
  EXPECT_EQ(ageBucketLabel(0.999), "<1s");
  EXPECT_EQ(ageBucketLabel(1.0), "1-2s");
  EXPECT_EQ(ageBucketLabel(1.999), "1-2s");
  EXPECT_EQ(ageBucketLabel(2.0), "2-5s");
  EXPECT_EQ(ageBucketLabel(5.0), "5-10s");
  EXPECT_EQ(ageBucketLabel(10.0), ">=10s");
  EXPECT_EQ(ageBucketLabel(1e9), ">=10s");
}

// ------------------------------------------------------------ projection

TEST(CausalTest, ToCausalRecordCarriesProvenanceAndCause) {
  TraceRecord t;
  t.at = sim::Time::seconds(3);
  t.event = TraceEvent::kPktDrop;
  t.reason = DropReason::kLinkFailNoSalvage;
  t.node = 7;
  t.kind = net::PacketKind::kData;
  t.uid = 42;
  t.cause = 41;
  t.src = 1;
  t.dst = 9;
  t.prov = net::RouteProvenance{99, net::RouteOrigin::kSnooped, 5,
                                sim::Time::seconds(1), 4};

  const CausalRecord r = toCausalRecord(t);
  EXPECT_DOUBLE_EQ(r.t, 3.0);
  EXPECT_EQ(r.event, "pkt_drop");
  EXPECT_EQ(r.reason, "link_fail_no_salvage");
  EXPECT_EQ(r.node, 7u);
  EXPECT_EQ(r.kind, "DATA");
  EXPECT_EQ(r.uid, 42u);
  EXPECT_EQ(r.cause, 41u);
  EXPECT_EQ(r.prov, 99u);
  EXPECT_EQ(r.origin, "snooped");
  EXPECT_EQ(r.provNode, 5u);
  EXPECT_DOUBLE_EQ(r.born, 1.0);
  EXPECT_EQ(r.provHops, 4u);
}

TEST(CausalTest, ParseCausalLineRoundTripsThroughJsonl) {
  TraceRecord t;
  t.at = sim::Time::seconds(2);
  t.event = TraceEvent::kCacheHit;
  t.node = 3;
  t.kind = net::PacketKind::kData;
  t.uid = 17;
  t.cause = 11;
  t.src = 3;
  t.dst = 8;
  t.detail = 1;
  t.prov = net::RouteProvenance{5, net::RouteOrigin::kTargetReply, 8,
                                sim::Time::fromSeconds(0.5), 3};

  t.flowId = 4;

  const TraceReadResult read = readText(toJson(t) + "\n");
  ASSERT_TRUE(read.errors.empty()) << read.errors.front();
  ASSERT_EQ(read.records.size(), 1u);
  const CausalRecord& parsed = read.records.front();
  const CausalRecord direct = toCausalRecord(t);
  EXPECT_DOUBLE_EQ(parsed.t, direct.t);
  EXPECT_EQ(parsed.event, direct.event);
  EXPECT_EQ(parsed.node, direct.node);
  EXPECT_EQ(parsed.kind, direct.kind);
  EXPECT_EQ(parsed.uid, direct.uid);
  EXPECT_EQ(parsed.cause, direct.cause);
  EXPECT_EQ(parsed.src, direct.src);
  EXPECT_EQ(parsed.dst, direct.dst);
  EXPECT_EQ(parsed.flow, 4u);
  EXPECT_EQ(parsed.flow, direct.flow);
  EXPECT_EQ(parsed.detail, direct.detail);
  EXPECT_EQ(parsed.prov, direct.prov);
  EXPECT_EQ(parsed.origin, direct.origin);
  EXPECT_EQ(parsed.provNode, direct.provNode);
  EXPECT_DOUBLE_EQ(parsed.born, direct.born);
  EXPECT_EQ(parsed.provHops, direct.provHops);
}

TEST(CausalTest, ParseCausalLineRejectsNonRecords) {
  // An object without a string "ev" is not a trace record; an empty line is
  // skipped without an error.
  const TraceReadResult read =
      readText("{\"foo\":1}\n\n{\"ev\":7}\n[1,2]\n");
  EXPECT_TRUE(read.records.empty());
  ASSERT_EQ(read.errors.size(), 3u);
  EXPECT_EQ(read.errors[0].rfind("line 1:", 0), 0u) << read.errors[0];
  EXPECT_EQ(read.errors[1].rfind("line 3:", 0), 0u) << read.errors[1];
  EXPECT_EQ(read.errors[2], "line 4: not a JSON object");
}

TEST(CausalTest, ReadTraceRejectsOutOfRangeIntegerFields) {
  // Each of these would wrap or be undefined behaviour as a plain cast.
  const char* bad[] = {
      "{\"ev\":\"pkt_drop\",\"uid\":1e20}",
      "{\"ev\":\"pkt_drop\",\"uid\":-1}",
      "{\"ev\":\"pkt_drop\",\"uid\":1e300}",
      "{\"ev\":\"pkt_drop\",\"uid\":1.5}",
      "{\"ev\":\"pkt_drop\",\"uid\":\"7\"}",
      "{\"ev\":\"pkt_drop\",\"node\":4294967296}",
      "{\"ev\":\"pkt_drop\",\"flow\":-3}",
      "{\"ev\":\"pkt_drop\",\"phops\":1e10}",
      "{\"ev\":\"pkt_drop\",\"detail\":1e19}",
      "{\"ev\":\"pkt_drop\",\"t\":1e999}",
      "{\"ev\":\"pkt_drop\",\"reason\":3}",
  };
  for (const char* line : bad) {
    const TraceReadResult read = readText(line);
    EXPECT_TRUE(read.records.empty()) << line;
    ASSERT_EQ(read.errors.size(), 1u) << line;
    EXPECT_EQ(read.errors[0].rfind("line 1: ", 0), 0u) << read.errors[0];
  }
  // The extremes that do fit are kept exactly.
  const TraceReadResult ok = readText(
      "{\"ev\":\"x\",\"node\":4294967295,\"detail\":-4096,"
      "\"uid\":9007199254740992}");
  ASSERT_EQ(ok.records.size(), 1u) << ok.errors.front();
  EXPECT_EQ(ok.records[0].node, 4294967295u);
  EXPECT_EQ(ok.records[0].detail, -4096);
  EXPECT_EQ(ok.records[0].uid, 9007199254740992u);
}

TEST(CausalTest, ReadTraceReportsTooDeepNestingAsMalformed) {
  const std::string deep(10000, '[');
  const TraceReadResult read =
      readText("{\"ev\":\"pkt_originate\",\"uid\":1}\n" + deep + "\n");
  EXPECT_EQ(read.records.size(), 1u);
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].rfind("line 2: nesting deeper than 256", 0), 0u)
      << read.errors[0];
}

// ----------------------------------------------------------- chain walks

TEST(CausalTest, AncestryFollowsCauseLinksRootFirst) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_originate", 1));      // data packet (root)
  idx.add(rec(0.1, "pkt_drop", 2, 1));        // RREQ caused by it
  idx.add(rec(0.2, "pkt_deliver", 3, 2));     // RREP caused by the RREQ
  const auto chain = idx.ancestry(3);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], 1u);
  EXPECT_EQ(chain[1], 2u);
  EXPECT_EQ(chain[2], 3u);
}

TEST(CausalTest, CausedByListsDirectChildrenAscending) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_originate", 1));
  idx.add(rec(0.1, "pkt_forward", 5, 1));
  idx.add(rec(0.2, "pkt_forward", 3, 1));
  idx.add(rec(0.3, "pkt_forward", 9, 3));
  const auto kids = idx.causedBy(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3u);
  EXPECT_EQ(kids[1], 5u);
}

TEST(CausalTest, AncestryIsCycleGuarded) {
  CausalIndex idx;
  idx.add(rec(0.0, "pkt_forward", 4, 5));  // malformed: 4 <- 5 <- 4
  idx.add(rec(0.1, "pkt_forward", 5, 4));
  const auto chain = idx.ancestry(4);  // must terminate
  EXPECT_GE(chain.size(), 2u);
  EXPECT_EQ(chain.back(), 4u);
}

TEST(CausalTest, RenderChainIsDeterministicAndComplete) {
  CausalIndex a;
  a.add(rec(0.0, "pkt_originate", 1));
  a.add(rec(0.1, "pkt_forward", 2, 1));
  CausalIndex b;
  b.add(rec(0.0, "pkt_originate", 1));
  b.add(rec(0.1, "pkt_forward", 2, 1));

  const std::string out = a.renderChain(2);
  EXPECT_EQ(out, b.renderChain(2));
  EXPECT_NE(out.find("causal chain for uid 2"), std::string::npos);
  EXPECT_NE(out.find("packet 1"), std::string::npos);
  EXPECT_NE(out.find("packet 2 *"), std::string::npos);
  EXPECT_NE(a.renderChain(1).find("caused: 2"), std::string::npos);
}

// ------------------------------------------------------ stale attribution

TEST(CausalTest, StaleReportAttributesProvenancedDrops) {
  CausalIndex idx;
  CausalRecord withProv = rec(4.5, "pkt_drop", 10);
  withProv.kind = "DATA";
  withProv.reason = "link_fail_no_salvage";
  withProv.prov = 77;
  withProv.origin = "snooped";
  withProv.born = 3.0;  // age 1.5s -> bucket "1-2s"
  idx.add(withProv);

  CausalRecord negDrop = withProv;
  negDrop.uid = 11;
  negDrop.reason = "negative_cache";
  negDrop.t = 14.0;  // age 11s -> bucket ">=10s"
  idx.add(negDrop);

  CausalRecord unattributed = rec(5.0, "pkt_drop", 12);
  unattributed.kind = "DATA";
  unattributed.reason = "link_fail_no_salvage";
  idx.add(unattributed);

  // Non-qualifying records do not count: control packet, benign drop.
  CausalRecord rreqDrop = rec(5.1, "pkt_drop", 13);
  rreqDrop.kind = "RREQ";
  rreqDrop.reason = "link_fail_no_salvage";
  idx.add(rreqDrop);
  CausalRecord ttlDrop = rec(5.2, "pkt_drop", 14);
  ttlDrop.kind = "DATA";
  ttlDrop.reason = "ttl_expired";
  idx.add(ttlDrop);

  const StaleReport rep = idx.staleReport();
  EXPECT_EQ(rep.staleDrops, 3u);
  EXPECT_EQ(rep.attributed, 2u);
  EXPECT_EQ(rep.distinctEntries, 1u);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_EQ(rep.rows[0].origin, "snooped");
  EXPECT_EQ(rep.rows[0].ageBucket, "1-2s");
  EXPECT_EQ(rep.rows[0].drops, 1u);
  EXPECT_EQ(rep.rows[1].ageBucket, ">=10s");

  const std::string text = rep.render();
  EXPECT_NE(text.find("stale drops: 3"), std::string::npos);
  EXPECT_NE(text.find("attributed: 2 (66.7%)"), std::string::npos);
  EXPECT_NE(text.find("distinct entries: 1"), std::string::npos);
}

TEST(CausalTest, StaleReportEmptyTraceRendersCleanly) {
  const StaleReport rep = CausalIndex{}.staleReport();
  EXPECT_EQ(rep.staleDrops, 0u);
  EXPECT_NE(rep.render().find("attributed: 0 (100.0%)"), std::string::npos);
}

// ------------------------------------------------------- checked reading

TEST(CausalTest, CheckedReaderReportsMalformedLinesWithNumbers) {
  const std::string path = ::testing::TempDir() + "/causal_checked.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"ev\":\"pkt_originate\",\"uid\":1}\n";
    out << "this is not json\n";
    out << "{\"ev\":\"pkt_deliver\",\"uid\":1}\n";
    out << "{\"ev\":\"pkt_drop\",\"uid\":2\n";  // truncated tail
  }
  const auto result = readTrace(path);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->records.size(), 2u);
  ASSERT_EQ(result->errors.size(), 2u);
  EXPECT_EQ(result->errors[0].rfind("line 2:", 0), 0u) << result->errors[0];
  EXPECT_EQ(result->errors[1].rfind("line 4:", 0), 0u) << result->errors[1];
  std::remove(path.c_str());
}

TEST(CausalTest, CheckedReaderMissingFileIsNullopt) {
  EXPECT_FALSE(readTrace("/nonexistent/causal_nope.jsonl").has_value());
}

TEST(CausalTest, FromLinesSkipsNonRecordLines) {
  TraceReadResult read = readText(
      "{\"ev\":\"pkt_originate\",\"uid\":7,\"t\":0.5}\n"
      "{\"not_a_record\":true}\n"
      "{\"ev\":\"pkt_deliver\",\"uid\":7,\"t\":0.9}\n");
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].rfind("line 2:", 0), 0u) << read.errors[0];
  const CausalIndex idx(std::move(read.records));
  EXPECT_EQ(idx.records().size(), 2u);
  EXPECT_EQ(idx.packetRecords(7).size(), 2u);
}

// -------------------------------------------------------- mutation test

std::vector<std::string> fixtureLines() {
  std::ifstream in(TRACE_FIXTURE);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The record a mutated line must still produce if it is accepted: every
/// integer field, checked against what the line's own JSON tree says.
void expectFaithful(const std::string& line, const CausalRecord& r) {
  const auto doc = util::parseJson(line);
  ASSERT_TRUE(doc.has_value()) << line;
  const auto same = [&](const char* key, double got) {
    if (const util::JsonValue* v = doc->find(key)) {
      EXPECT_EQ(v->asNumber(), got) << key << " in " << line;
    } else {
      EXPECT_EQ(got, 0.0) << key << " in " << line;
    }
  };
  same("uid", static_cast<double>(r.uid));
  same("cause", static_cast<double>(r.cause));
  same("prov", static_cast<double>(r.prov));
  same("node", r.node);
  same("src", r.src);
  same("dst", r.dst);
  same("flow", r.flow);
  same("detail", static_cast<double>(r.detail));
  same("phops", r.provHops);
}

/// Replace the value of integer field `key` in `line` with `value`.
std::string withField(std::string line, const std::string& key,
                      const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return line;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find_first_of(",}", start);
  return line.replace(start, end - start, value);
}

TEST(CausalTest, SeededMutationsYieldRecordsOrLineErrors) {
  const std::vector<std::string> base = fixtureLines();
  ASSERT_GT(base.size(), 50u) << TRACE_FIXTURE;
  const char* kFields[] = {"uid",  "cause", "prov",  "node", "src",
                           "dst",  "flow",  "detail", "phops"};
  const char* kValues[] = {"1e300", "-1", "1e20", "-1e300", "4294967296",
                           "18446744073709551616", "0.5", "1e999", "\"x\"",
                           "[1]", "null", "9223372036854775808"};
  sim::Rng rng(20011);
  // A uniform index in [0, n).
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string text;
  std::vector<std::string> mutated;
  for (int i = 0; i < 4000; ++i) {
    std::string line = base[pick(base.size())];
    switch (pick(5)) {
      case 0:  // truncation
        line.resize(pick(line.size() + 1));
        break;
      case 1:  // byte flips
        for (std::size_t f = pick(4) + 1; f > 0 && !line.empty(); --f) {
          char& c = line[pick(line.size())];
          c = static_cast<char>(c ^ (1 << pick(8)));
        }
        break;
      case 2:  // huge, negative, fractional or mistyped integer fields
        line = withField(line, kFields[pick(std::size(kFields))],
                         kValues[pick(std::size(kValues))]);
        break;
      case 3: {  // deep nesting in place of a value
        const std::size_t depth = 200 + pick(20000);
        line = withField(line, "node",
                         std::string(depth, '[') + std::string(depth, ']'));
        break;
      }
      default:  // untouched
        break;
    }
    if (line.find('\n') != std::string::npos) continue;  // flipped into '\n'
    mutated.push_back(line);
    text += line;
    text += '\n';
  }

  const TraceReadResult read = readText(text);
  // Every non-empty line is accounted for exactly once: a record or an
  // error naming its line.
  std::size_t nonEmpty = 0;
  for (const std::string& l : mutated) nonEmpty += l.empty() ? 0 : 1;
  EXPECT_EQ(read.records.size() + read.errors.size(), nonEmpty);
  EXPECT_GT(read.records.size(), 0u);
  EXPECT_GT(read.errors.size(), 0u);

  std::size_t rec = 0, err = 0;
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    if (mutated[i].empty()) continue;
    const std::string prefix = "line " + std::to_string(i + 1) + ": ";
    if (err < read.errors.size() && read.errors[err].rfind(prefix, 0) == 0) {
      ++err;
      continue;
    }
    ASSERT_LT(rec, read.records.size()) << "line " << i + 1;
    expectFaithful(mutated[i], read.records[rec]);
    ++rec;
  }
  EXPECT_EQ(rec, read.records.size());
  EXPECT_EQ(err, read.errors.size());
}

}  // namespace
}  // namespace manet::telemetry
