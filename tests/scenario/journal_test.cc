#include "src/scenario/journal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/util/atomic_file.h"
#include "src/util/json.h"

namespace manet::scenario {
namespace {

namespace fs = std::filesystem;

/// A RunResult with every field populated with awkward values: doubles that
/// don't round-trip at %.9g, the full counter set including the fields the
/// human-facing export omits (dropNodeDown, fault counters), per-origin
/// array, and a sampled series.
RunResult denseResult() {
  RunResult r;
  r.duration = sim::Time::nanos(500'000'000'123);
  r.eventsExecuted = 9'007'199'254'740'991ull;  // 2^53 - 1, doubles' edge
  r.schedQueuePeak = 4242;
  r.wallSeconds = 1.234567890123456;
  metrics::Metrics& m = r.metrics;
  m.dataOriginated = 37501;
  m.dataDelivered = 36987;
  m.bytesDelivered = 18'937'344;
  m.delaySumSec = 0.1 + 0.2;  // 0.30000000000000004 — %.9g would lose it
  m.dropSendBufferTimeout = 11;
  m.dropSendBufferOverflow = 13;
  m.dropIfqFull = 17;
  m.dropLinkFailNoSalvage = 19;
  m.dropNegativeCache = 23;
  m.dropTtlExpired = 29;
  m.dropMacDuplicate = 31;
  m.dropNodeDown = 41;  // not in metricsJson — journal must carry it anyway
  m.rreqTx = 101;
  m.rrepTx = 103;
  m.rerrTx = 107;
  m.rtsTx = 109;
  m.ctsTx = 113;
  m.ackTx = 127;
  m.dataFrameTx = 131;
  m.ctsTimeouts = 137;
  m.ackTimeouts = 139;
  m.rtsIgnoredBusy = 149;
  m.cacheHits = 151;
  m.invalidCacheHits = 157;
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    m.invalidCacheHitsByOrigin[i] = 1000 + i;
  }
  m.repliesReceived = 163;
  m.goodRepliesReceived = 167;
  m.cacheRepliesGenerated = 173;
  m.targetRepliesGenerated = 179;
  m.gratuitousRepliesGenerated = 181;
  m.staleRepliesIgnored = 191;
  m.routeDiscoveriesStarted = 193;
  m.nonPropRequestsSent = 197;
  m.floodRequestsSent = 199;
  m.linkBreaksDetected = 211;
  m.fakeLinkBreaks = 223;
  m.salvageAttempts = 227;
  m.expiredLinks = 229;
  m.rerrWideRebroadcasts = 233;
  m.negCacheInsertions = 239;
  m.faultNodeCrashes = 241;
  m.faultNodeRecoveries = 251;
  m.faultLinkBlackouts = 257;
  m.faultNoiseBursts = 263;
  m.faultTrafficSurges = 269;
  r.series.period = sim::Time::millis(500);
  r.series.timeSec = {0.5, 1.0, 1.5};
  r.series.meanCacheSize = {1.0 / 3.0, 2.0 / 3.0, 1.0};
  r.series.invalidEntryFrac = {0.0, 0.1, 0.30000000000000004};
  r.series.meanSendBufOccupancy = {0.25, 0.5, 0.75};
  r.series.originated = {10, 20, 30};
  r.series.delivered = {9, 19, 29};
  r.series.dropped = {1, 1, 1};
  r.series.cacheHits = {2, 4, 6};
  r.series.linkBreaks = {0, 1, 2};
  return r;
}

TEST(JournalTest, RunResultRoundTripIsLossless) {
  const RunResult in = denseResult();
  std::string err;
  const std::optional<RunResult> out =
      runResultFromJournalJson(runResultToJournalJson(in), &err);
  ASSERT_TRUE(out.has_value()) << err;
  EXPECT_EQ(out->duration.ns(), in.duration.ns());
  EXPECT_EQ(out->eventsExecuted, in.eventsExecuted);
  EXPECT_EQ(out->schedQueuePeak, in.schedQueuePeak);
  EXPECT_EQ(out->wallSeconds, in.wallSeconds);  // exact, not approximate
  EXPECT_EQ(out->metrics.delaySumSec, in.metrics.delaySumSec);
  EXPECT_EQ(out->metrics.dataOriginated, in.metrics.dataOriginated);
  EXPECT_EQ(out->metrics.dropNodeDown, in.metrics.dropNodeDown);
  EXPECT_EQ(out->metrics.faultTrafficSurges, in.metrics.faultTrafficSurges);
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    EXPECT_EQ(out->metrics.invalidCacheHitsByOrigin[i],
              in.metrics.invalidCacheHitsByOrigin[i]);
  }
  EXPECT_EQ(out->series.period.ns(), in.series.period.ns());
  EXPECT_EQ(out->series.timeSec, in.series.timeSec);
  EXPECT_EQ(out->series.meanCacheSize, in.series.meanCacheSize);
  EXPECT_EQ(out->series.invalidEntryFrac, in.series.invalidEntryFrac);
  EXPECT_EQ(out->series.delivered, in.series.delivered);
  // The acid test: re-serialization is byte-identical, so a resumed cell
  // journals exactly the bytes an uninterrupted run would have.
  EXPECT_EQ(runResultToJournalJson(*out), runResultToJournalJson(in));
}

TEST(JournalTest, RejectsMalformedPayloads) {
  std::string err;
  EXPECT_FALSE(runResultFromJournalJson("", &err).has_value());
  EXPECT_FALSE(runResultFromJournalJson("not json", &err).has_value());
  EXPECT_FALSE(runResultFromJournalJson("{\"duration_ns\":1}", &err));
  EXPECT_FALSE(err.empty());
}

TEST(JournalTest, CellKeyTracksConfigSeedAndNothingElse) {
  ScenarioConfig a;
  a.numNodes = 20;
  ScenarioConfig b = a;
  EXPECT_EQ(cellKey(a), cellKey(b));
  b.mobilitySeed += 1;
  EXPECT_NE(cellKey(a), cellKey(b));
  b = a;
  b.dsr.negativeCache = !b.dsr.negativeCache;
  EXPECT_NE(cellKey(a), cellKey(b));
  b = a;
  b.fault.churn.fraction = 0.5;
  EXPECT_NE(cellKey(a), cellKey(b));
  // Telemetry / profiling knobs are proven non-perturbing, so a resume may
  // legitimately change them without invalidating journaled cells.
  b = a;
  b.telemetry.samplePeriod = sim::Time::seconds(1);
  b.prof.enabled = true;
  EXPECT_EQ(cellKey(a), cellKey(b));
}

TEST(JournalTest, WriterAndLoaderRoundTrip) {
  const fs::path path =
      fs::temp_directory_path() / "manet_journal_roundtrip.jsonl";
  fs::remove(path);
  JournalWriter w(path.string());
  CampaignInfo info;
  info.plan = "tiny";
  info.points = 2;
  info.replications = 3;
  info.codeVersion = codeVersion();
  info.cmd = "./bench --scale tiny";
  ASSERT_TRUE(w.campaign(info));
  JournalEntry done;
  done.label = "tiny_pause_s=0";
  done.rep = 1;
  done.key = "0123456789abcdef";
  done.status = "done";
  done.attempts = 2;
  done.resultJson = runResultToJournalJson(denseResult());
  ASSERT_TRUE(w.cell(done));
  JournalEntry bad;
  bad.label = "tiny_pause_s=2";
  bad.rep = 0;
  bad.key = "fedcba9876543210";
  bad.status = "quarantined";
  bad.attempts = 3;
  bad.error = "signal 11 (Segmentation fault) with \"quotes\"\nand newline";
  ASSERT_TRUE(w.cell(bad));

  const JournalState s = loadJournal(path.string());
  EXPECT_EQ(s.corruptLines, 0u);
  ASSERT_EQ(s.campaigns.size(), 1u);
  EXPECT_EQ(s.campaigns[0].plan, "tiny");
  EXPECT_EQ(s.campaigns[0].replications, 3);
  EXPECT_EQ(s.campaigns[0].cmd, "./bench --scale tiny");
  ASSERT_EQ(s.cells.size(), 2u);
  const JournalEntry& d = s.cells.at({"tiny_pause_s=0", 1});
  EXPECT_EQ(d.status, "done");
  EXPECT_EQ(d.attempts, 2);
  EXPECT_EQ(d.key, "0123456789abcdef");
  const std::optional<RunResult> restored =
      runResultFromJournalJson(d.resultJson);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(runResultToJournalJson(*restored),
            runResultToJournalJson(denseResult()));
  const JournalEntry& q = s.cells.at({"tiny_pause_s=2", 0});
  EXPECT_EQ(q.status, "quarantined");
  EXPECT_EQ(q.error,
            "signal 11 (Segmentation fault) with \"quotes\"\nand newline");
  EXPECT_EQ(s.countStatus("done"), 1u);
  EXPECT_EQ(s.countStatus("quarantined"), 1u);
  fs::remove(path);
}

TEST(JournalTest, TruncatedTrailingLineIsSkippedNotFatal) {
  const fs::path path = fs::temp_directory_path() / "manet_journal_torn.jsonl";
  fs::remove(path);
  JournalWriter w(path.string());
  JournalEntry e;
  e.label = "p";
  e.rep = 0;
  e.key = "k";
  e.status = "done";
  e.resultJson = runResultToJournalJson(RunResult{});
  ASSERT_TRUE(w.cell(e));
  {
    // Simulate the tail a crash can leave: an append cut mid-record.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"type\":\"cell\",\"label\":\"q\",\"rep\":1,\"sta";
  }
  const JournalState s = loadJournal(path.string());
  EXPECT_EQ(s.corruptLines, 1u);
  EXPECT_EQ(s.cells.size(), 1u);
  EXPECT_TRUE(s.cells.count({"p", 0}));
  fs::remove(path);
}

TEST(JournalTest, CorruptMiddleLinesAndUnknownTypesAreSkipped) {
  const fs::path path = fs::temp_directory_path() / "manet_journal_mid.jsonl";
  fs::remove(path);
  util::appendLineDurable(path.string(), "garbage not json");
  util::appendLineDurable(path.string(), "{\"type\":\"future-record\"}");
  JournalWriter w(path.string());
  JournalEntry e;
  e.label = "p";
  e.rep = 0;
  e.key = "k";
  e.status = "failed";
  e.error = "boom";
  ASSERT_TRUE(w.cell(e));
  util::appendLineDurable(path.string(), "{\"type\":\"cell\",\"rep\":2}");
  const JournalState s = loadJournal(path.string());
  EXPECT_EQ(s.corruptLines, 2u);  // garbage + label-less cell
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells.at({"p", 0}).error, "boom");
  fs::remove(path);
}

TEST(JournalTest, TooDeeplyNestedLineCountsAsCorrupt) {
  const fs::path path = fs::temp_directory_path() / "manet_journal_deep.jsonl";
  fs::remove(path);
  JournalWriter w(path.string());
  JournalEntry e;
  e.label = "p";
  e.rep = 0;
  e.key = "k";
  e.status = "done";
  e.resultJson = runResultToJournalJson(RunResult{});
  ASSERT_TRUE(w.cell(e));
  util::appendLineDurable(path.string(), std::string(10000, '['));
  const JournalState s = loadJournal(path.string());
  EXPECT_EQ(s.corruptLines, 1u);
  EXPECT_EQ(s.cells.size(), 1u);
  fs::remove(path);
}

TEST(JournalTest, LastRecordPerCellWins) {
  const fs::path path = fs::temp_directory_path() / "manet_journal_last.jsonl";
  fs::remove(path);
  JournalWriter w(path.string());
  JournalEntry e;
  e.label = "p";
  e.rep = 0;
  e.key = "k1";
  e.status = "failed";
  e.error = "transient";
  ASSERT_TRUE(w.cell(e));
  e.key = "k2";
  e.status = "done";
  e.error.clear();
  e.attempts = 2;
  e.resultJson = runResultToJournalJson(RunResult{});
  ASSERT_TRUE(w.cell(e));
  const JournalState s = loadJournal(path.string());
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells.at({"p", 0}).status, "done");
  EXPECT_EQ(s.cells.at({"p", 0}).key, "k2");
  fs::remove(path);
}

// -------------------------------------------------------- mutation test

/// Replace the value of field `key` in `line` with `value` (up to the next
/// ',' or '}', so for an array only its first element is replaced when
/// `value` starts with '[').
std::string withField(std::string line, const std::string& key,
                      const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return line;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find_first_of(",}", start);
  return line.replace(start, end - start, value);
}

/// `got` must be what `obj[key]` says, or `absent` when the key is absent.
void expectSame(const util::JsonValue& obj, const char* key, double got,
                double absent, const std::string& line) {
  const util::JsonValue* v = obj.find(key);
  EXPECT_EQ(v != nullptr ? v->asNumber() : absent, got) << key << " in "
                                                         << line;
}

/// A payload runResultFromJournalJson accepted must carry exactly the
/// integers its JSON holds.
void expectFaithfulPayload(const RunResult& r, const std::string& line) {
  const auto doc = util::parseJson(line);
  ASSERT_TRUE(doc.has_value()) << line;
  const util::JsonValue& res = *doc->find("result");
  const util::JsonValue& met = *res.find("metrics");
  const util::JsonValue& ser = *res.find("series");
  expectSame(res, "duration_ns", static_cast<double>(r.duration.ns()), 0,
             line);
  expectSame(res, "events_executed", static_cast<double>(r.eventsExecuted),
             0, line);
  expectSame(res, "sched_queue_peak", static_cast<double>(r.schedQueuePeak),
             0, line);
  expectSame(met, "data_originated",
             static_cast<double>(r.metrics.dataOriginated), 0, line);
  expectSame(ser, "period_ns", static_cast<double>(r.series.period.ns()), 0,
             line);
  const auto sameArray = [&](const util::JsonValue& obj, const char* key,
                             const auto& got) {
    const util::JsonArray& want = obj.find(key)->asArray();
    ASSERT_EQ(want.size(), std::size(got)) << key << " in " << line;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(want[i].isNumber()) << key << "[" << i << "] in " << line;
      EXPECT_EQ(want[i].asNumber(), static_cast<double>(got[i]))
          << key << "[" << i << "] in " << line;
    }
  };
  sameArray(met, "invalid_hits_by_origin", r.metrics.invalidCacheHitsByOrigin);
  sameArray(ser, "t_s", r.series.timeSec);
  sameArray(ser, "originated", r.series.originated);
  sameArray(ser, "link_breaks", r.series.linkBreaks);
}

// Journal lines of every kind, mutated the way a torn write, a flipped bit
// or a hand-edited file can: each line must load as a record whose integer
// fields equal the JSON's, or count as corrupt. Never a wrapped value.
TEST(JournalTest, SeededMutationsYieldEntriesOrCorruptLines) {
  const fs::path path = fs::temp_directory_path() / "manet_journal_mut.jsonl";
  fs::remove(path);
  {
    JournalWriter w(path.string());
    CampaignInfo info;
    info.plan = "tiny";
    info.points = 2;
    info.replications = 3;
    info.cmd = "./bench --scale tiny";
    ASSERT_TRUE(w.campaign(info));
    JournalEntry done;
    done.label = "p";
    done.rep = 1;
    done.key = "k";
    done.status = "done";
    done.attempts = 2;
    done.resultJson = runResultToJournalJson(denseResult());
    ASSERT_TRUE(w.cell(done));
    JournalEntry failed = done;
    failed.status = "failed";
    failed.error = "boom";
    failed.resultJson.clear();
    ASSERT_TRUE(w.cell(failed));
  }
  std::vector<std::string> base;
  {
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);) base.push_back(l);
  }
  ASSERT_EQ(base.size(), 3u);

  const char* kFields[] = {"points",          "replications",
                           "rep",             "attempts",
                           "duration_ns",     "events_executed",
                           "sched_queue_peak", "data_originated",
                           "period_ns"};
  const char* kArrays[] = {"invalid_hits_by_origin", "t_s", "originated",
                           "link_breaks"};
  const char* kValues[] = {"1e300", "-1", "1e20", "-1e300", "4294967296",
                           "2147483648", "-2147483649",
                           "18446744073709551616", "0.5", "1e999", "\"x\"",
                           "null", "9223372036854775808"};
  sim::Rng rng(20012);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t accepted = 0, corrupt = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string line = base[pick(base.size())];
    switch (pick(4)) {
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
      default:  // the same, as an array element
        line = withField(line, kArrays[pick(std::size(kArrays))],
                         std::string("[") + kValues[pick(std::size(kValues))]);
        break;
    }
    if (line.empty() || line.find('\n') != std::string::npos) continue;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << line << '\n';
    }
    const JournalState s = loadJournal(path.string());
    ASSERT_EQ(s.totalLines, 1u) << line;
    if (s.corruptLines == 1) {
      EXPECT_TRUE(s.campaigns.empty() && s.cells.empty()) << line;
      ++corrupt;
      continue;
    }
    ++accepted;
    const auto doc = util::parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    for (const CampaignInfo& c : s.campaigns) {
      expectSame(*doc, "points", static_cast<double>(c.points), 0, line);
      expectSame(*doc, "replications", c.replications, 0, line);
    }
    for (const auto& [key, e] : s.cells) {
      expectSame(*doc, "rep", e.rep, 0, line);
      expectSame(*doc, "attempts", e.attempts, 1, line);
      if (e.status != "done") continue;
      std::string err;
      if (const std::optional<RunResult> r =
              runResultFromJournalJson(e.resultJson, &err)) {
        expectFaithfulPayload(*r, line);
      } else {
        EXPECT_FALSE(err.empty()) << line;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(corrupt, 0u);
  fs::remove(path);
}

TEST(JournalTest, MissingFileLoadsEmpty) {
  const JournalState s = loadJournal("/nonexistent/path/journal.jsonl");
  EXPECT_EQ(s.totalLines, 0u);
  EXPECT_TRUE(s.cells.empty());
  EXPECT_TRUE(s.campaigns.empty());
}

}  // namespace
}  // namespace manet::scenario
