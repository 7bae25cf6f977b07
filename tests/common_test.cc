#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "job/description.h"

namespace fuxi {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Timeout("slow"); };
  auto outer = [&]() -> Status {
    FUXI_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_TRUE(outer().IsTimeout());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::NotFound("x");
  };
  auto use = [&](bool ok) -> Result<int> {
    FUXI_ASSIGN_OR_RETURN(int v, make(ok));
    return v * 2;
  };
  EXPECT_EQ(*use(true), 14);
  EXPECT_TRUE(use(false).status().IsNotFound());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbabilityRoughly) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(77);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(RngTest, WeightedIndexPrefersHeavyWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("-3.5")->as_number(), -3.5);
  EXPECT_EQ(Json::Parse("\"hi\\n\"")->as_string(), "hi\n");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto result = Json::Parse(R"({"Tasks": {"T1": {"n": 3}}, "Pipes": [1, 2]})");
  ASSERT_TRUE(result.ok());
  const Json& json = *result;
  const Json* tasks = json.Find("Tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->Find("T1")->GetInt("n"), 3);
  EXPECT_EQ(json.Find("Pipes")->as_array().size(), 2u);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, RoundTripsThroughDump) {
  const char* text =
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -7})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  auto reparsed = Json::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
}

TEST(JsonTest, EscapesSpecialCharacters) {
  Json j(std::string("a\"b\\c\nd"));
  auto round = Json::Parse(j.Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->as_string(), "a\"b\\c\nd");
}

TEST(JsonTest, UnicodeEscapeDecodes) {
  auto parsed = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
}

TEST(JsonTest, BuilderInterfaceComposes) {
  Json job = Json::MakeObject();
  job["name"] = Json("sort");
  job["tasks"].Append(Json("map"));
  job["tasks"].Append(Json("reduce"));
  EXPECT_EQ(job.Dump(), R"({"name":"sort","tasks":["map","reduce"]})");
}

TEST(JsonTest, GettersFallBackOnTypeMismatch) {
  auto json = Json::Parse(R"({"n": "not-a-number"})");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->GetInt("n", -5), -5);
  EXPECT_EQ(json->GetString("missing", "dflt"), "dflt");
}

TEST(JsonTest, DeepNestingIsRejectedNotCrashing) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, OutOfRangeIntegersSaturate) {
  auto json = Json::Parse(R"({"big": 1e300, "small": -1e999, "n": -7.9})");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->GetInt("big"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(json->GetInt("small"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(json->GetInt("n"), -7);
}

// Seeded mutations of a real job description through the whole decode
// path (Json::Parse, then JobDescription::FromJson): every mutant must
// come back as a value or an error Status, never an abort. The counts
// at the end keep the test honest — both outcomes must occur at both
// stages, or the mutations are not reaching the decoder.
TEST(JsonTest, SeededMutationsNeverCrash) {
  job::JobDescription desc;
  desc.name = "etl";
  desc.tenant_path = "org/team/user";
  desc.tenant_weight = 2.5;
  job::TaskConfig map;
  map.name = "map";
  map.instances = 400;
  map.max_workers = 40;
  map.unit = cluster::ResourceVector(150, 4096);
  map.priority = 7;
  map.instance_seconds = 3.25;
  map.input_bytes_per_instance = 1 << 24;
  map.input_file = "pangu://logs/2014-*";
  map.backup_normal_seconds = 12.5;
  map.estimated_seconds = 90;
  job::TaskConfig reduce;
  reduce.name = "reduce";
  reduce.instances = 20;
  reduce.max_workers = 20;
  reduce.gang = true;
  desc.tasks = {map, reduce};
  desc.pipes.push_back({"", "map", "pangu://logs/2014-*"});
  desc.pipes.push_back({"map", "reduce", ""});
  desc.pipes.push_back({"reduce", "", "pangu://out/\"\u00e9\n"});
  const std::string base = desc.ToJson().Dump();
  ASSERT_TRUE(job::JobDescription::FromJson(*Json::Parse(base)).ok());

  Rng rng(0x5EEDu);
  auto pos = [&rng](const std::string& s) {
    return static_cast<size_t>(rng.Uniform(s.size() + 1));
  };
  int parsed = 0, parse_errors = 0, decoded = 0, decode_errors = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = base;
    for (int m = 1 + static_cast<int>(rng.Uniform(3)); m > 0; --m) {
      if (text.empty()) text = base;
      size_t at = pos(text) % text.size();
      switch (rng.Uniform(6)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << rng.Uniform(8)));
          break;
        case 1:  // overwrite with an arbitrary byte
          text[at] = static_cast<char>(rng.Uniform(256));
          break;
        case 2:  // delete a run
          text.erase(at, 1 + rng.Uniform(16));
          break;
        case 3: {  // duplicate a run somewhere else
          std::string run = text.substr(at, 1 + rng.Uniform(32));
          text.insert(pos(text), run);
          break;
        }
        case 4:  // truncate
          text.resize(at);
          break;
        case 5: {  // nest past the parser's depth limit
          size_t depth = Json::kMaxDepth + 1 + rng.Uniform(64);
          std::string open;
          for (size_t d = 0; d < depth; ++d) {
            open += rng.Bernoulli(0.5) ? "[" : "{\"k\":";
          }
          text.insert(at, open);
          break;
        }
      }
    }
    Result<Json> json = Json::Parse(text);
    if (!json.ok()) {
      ++parse_errors;
      continue;
    }
    ++parsed;
    Result<job::JobDescription> decoded_desc =
        job::JobDescription::FromJson(*json);
    if (decoded_desc.ok()) {
      ++decoded;
    } else {
      ++decode_errors;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(parse_errors, 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(decode_errors, 0);
}

// --------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Join(pieces, "/"), "x/y/z");
  EXPECT_EQ(Split("x/y/z", '/'), pieces);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("pangu://path", "pangu://"));
  EXPECT_FALSE(StartsWith("p", "pangu"));
  EXPECT_TRUE(EndsWith("file.json", ".json"));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3), "0.33");
}

TEST(StringsTest, FormatBytesPicksUnits) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KB");
  EXPECT_EQ(FormatBytes(2.5 * 1024 * 1024 * 1024), "2.50 GB");
}

// --------------------------------------------------------------- Metrics

TEST(HistogramTest, TracksBasicAggregates) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesInterpolate) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(95), 95.05, 0.1);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100);
}

TEST(HistogramTest, WelfordVarianceMatchesClosedForm) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.Add(v);
  EXPECT_NEAR(h.variance(), 32.0 / 7.0, 1e-9);  // sample variance
}

TEST(HistogramTest, PercentileAfterAddStaysCorrect) {
  Histogram h;
  h.Add(10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10);
  h.Add(20);  // must re-sort internally
  EXPECT_DOUBLE_EQ(h.Percentile(100), 20);
}

TEST(HistogramTest, PercentilesExactBelowCap) {
  // Integers below 256 sit in unit-width buckets, so their percentiles
  // are exact.
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100);
}

/// Exact rank-interpolated percentile of `samples` (sorted in place).
double ExactPercentile(std::vector<double>* samples, double q) {
  std::sort(samples->begin(), samples->end());
  double rank = q / 100.0 * static_cast<double>(samples->size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples->size()) return samples->back();
  return (*samples)[lo] * (1.0 - frac) + (*samples)[lo + 1] * frac;
}

std::vector<double> LognormalSamples(size_t n) {
  Rng rng(2014);
  std::vector<double> samples;
  samples.reserve(n);
  for (size_t i = 0; i < n; ++i) samples.push_back(rng.LogNormal(3.0, 1.5));
  return samples;
}

TEST(HistogramTest, PercentilesWithinBucketErrorBeyondOldSampleCap) {
  // 200,000 samples: three times the 65,536 raw samples the histogram
  // once kept before falling back to reservoir sampling.
  std::vector<double> samples = LognormalSamples(200000);
  Histogram h;
  for (double v : samples) h.Add(v);
  EXPECT_EQ(h.count(), samples.size());
  for (double q : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    double exact = ExactPercentile(&samples, q);
    EXPECT_NEAR(h.Percentile(q), exact, exact / Histogram::kSubBuckets)
        << "p" << q;
  }
  EXPECT_DOUBLE_EQ(h.Percentile(0), samples.front());
  EXPECT_DOUBLE_EQ(h.Percentile(100), samples.back());
  EXPECT_DOUBLE_EQ(h.min(), samples.front());
  EXPECT_DOUBLE_EQ(h.max(), samples.back());
}

TEST(HistogramTest, PercentilesIgnoreInsertionOrder) {
  std::vector<double> samples = LognormalSamples(20000);
  Histogram in_order;
  for (double v : samples) in_order.Add(v);
  std::vector<double> shuffled = samples;
  Rng rng(7);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    size_t j = static_cast<size_t>(rng.Uniform(i + 1));
    std::swap(shuffled[i], shuffled[j]);
  }
  Histogram reordered;
  for (double v : shuffled) reordered.Add(v);
  for (double q : {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(in_order.Percentile(q), reordered.Percentile(q)) << "p" << q;
  }
}

TEST(HistogramTest, MidStreamQueriesLeaveLaterResultsUnchanged) {
  std::vector<double> samples = LognormalSamples(20000);
  Histogram queried;
  Histogram quiet;
  for (size_t i = 0; i < samples.size(); ++i) {
    queried.Add(samples[i]);
    quiet.Add(samples[i]);
    if (i % 997 == 0) {
      queried.Percentile(50);
      queried.Percentile(99);
    }
  }
  for (double q : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(queried.Percentile(q), quiet.Percentile(q)) << "p" << q;
  }
}

TEST(HistogramTest, NonPositiveValuesShareTheZeroBucket) {
  Histogram h;
  for (double v : {-4.0, 0.0, 0.0, 10.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Percentile(0), -4.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  h.Add(0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.25);
}

TEST(TimeSeriesTest, DownsampleAveragesBuckets) {
  TimeSeries series;
  for (int i = 0; i < 100; ++i) {
    series.Add(i, i % 2 == 0 ? 0.0 : 2.0);
  }
  TimeSeries down = series.Downsample(10);
  EXPECT_LE(down.size(), 10u);
  for (const auto& p : down.points()) EXPECT_NEAR(p.value, 1.0, 0.3);
}

TEST(TimeSeriesTest, DownsampleEmptySeriesIsEmpty) {
  TimeSeries series;
  EXPECT_TRUE(series.Downsample(5).empty());
  EXPECT_TRUE(series.Downsample(0).empty());
}

TEST(TimeSeriesTest, DownsampleMoreBucketsThanPointsIsIdentity) {
  TimeSeries series;
  series.Add(0, 1);
  series.Add(1, 5);
  series.Add(2, 3);
  TimeSeries down = series.Downsample(10);
  ASSERT_EQ(down.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(down.points()[i].time, series.points()[i].time);
    EXPECT_DOUBLE_EQ(down.points()[i].value, series.points()[i].value);
  }
}

TEST(TimeSeriesTest, DownsampleSingleBucketAveragesEverything) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) series.Add(i, i);
  TimeSeries down = series.Downsample(1);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_DOUBLE_EQ(down.points()[0].value, 4.5);
}

TEST(TimeSeriesTest, DownsampleZeroTimeWidthCollapsesToMean) {
  TimeSeries series;  // all points share one timestamp
  series.Add(3.0, 2);
  series.Add(3.0, 4);
  series.Add(3.0, 6);
  series.Add(3.0, 8);
  TimeSeries down = series.Downsample(2);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_DOUBLE_EQ(down.points()[0].time, 3.0);
  EXPECT_DOUBLE_EQ(down.points()[0].value, 5.0);
}

TEST(TimeSeriesTest, MeanAndMax) {
  TimeSeries series;
  series.Add(0, 1);
  series.Add(1, 5);
  series.Add(2, 3);
  EXPECT_DOUBLE_EQ(series.MeanValue(), 3.0);
  EXPECT_DOUBLE_EQ(series.MaxValue(), 5.0);
}

}  // namespace
}  // namespace fuxi
