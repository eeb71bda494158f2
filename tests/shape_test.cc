// Paper-shape checks over the committed golden outputs (tests/golden/).
// The golden gate pins output bytes; these checks pin the claims that
// EXPERIMENTS.md makes about those outputs, as orderings and bands, so a
// deliberate re-bless cannot flip a claim unnoticed. Each band says where it
// comes from: the paper's number and the committed output it was set
// against ("reads X" is the committed output; "was Y" the output before
// revoke-then-promote became the only failover mode, DESIGN.md §16).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef RING_SOURCE_ROOT
#error "shape_test requires RING_SOURCE_ROOT (set in tests/CMakeLists.txt)"
#endif

namespace ring {
namespace {

// Golden file `name` from tests/golden/, or from $RING_GOLDEN_DIR when set:
// `tools/golden.sh --bless` runs these checks on its staged outputs there.
std::vector<std::string> GoldenLines(const std::string& name) {
  const char* staged = std::getenv("RING_GOLDEN_DIR");
  const std::string dir = staged != nullptr && *staged != '\0'
                              ? std::string(staged)
                              : std::string(RING_SOURCE_ROOT) + "/tests/golden";
  std::ifstream in(dir + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot read " << dir << "/" << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// The number right after the first `label` on `line`; NaN when absent.
double NumberAfter(const std::string& line, const std::string& label) {
  const size_t at = line.find(label);
  if (at == std::string::npos) {
    return NAN;
  }
  std::istringstream in(line.substr(at + label.size()));
  double value = NAN;
  in >> value;
  return value;
}

// One row of a size sweep: the swept size and the median it printed.
struct Point {
  double size = 0;
  double median_us = 0;
};

void ExpectNonDecreasing(const std::vector<Point>& points,
                         const std::string& what) {
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].median_us, points[i].median_us)
        << what << ": median drops from size " << points[i - 1].size
        << " to " << points[i].size;
  }
}

// Fig. 7: "put:SRS32      2 B   median   11.68 us   p90 ..." and
// "get           2 B   median    5.80 us   p90 ...".
std::map<std::string, std::vector<Point>> Fig7Medians() {
  std::map<std::string, std::vector<Point>> by_row;
  for (const std::string& line : GoldenLines("fig7_latency.txt")) {
    if (line.rfind("put", 0) != 0 && line.rfind("get", 0) != 0) {
      continue;
    }
    if (line.find("median") == std::string::npos) {
      continue;  // a per-phase breakdown row
    }
    const std::string row = line.substr(0, line.find(' '));
    by_row[row].push_back(
        {NumberAfter(line, row), NumberAfter(line, "median")});
  }
  return by_row;
}

TEST(ShapeTest, Fig7PutLatencyOrdersSchemesAsThePaper) {
  std::map<std::string, std::vector<Point>> by_row = Fig7Medians();
  const std::vector<Point>& rep1 = by_row["put:REP1"];
  const std::vector<Point>& rep3 = by_row["put:REP3"];
  const std::vector<Point>& srs32 = by_row["put:SRS32"];
  const std::vector<Point>& srs31 = by_row["put:SRS31"];
  const std::vector<Point>& srs21 = by_row["put:SRS21"];
  ASSERT_EQ(rep1.size(), 11u);
  for (const std::vector<Point>* other : {&rep3, &srs32, &srs31, &srs21}) {
    ASSERT_EQ(other->size(), rep1.size());
  }
  for (size_t i = 0; i < rep1.size(); ++i) {
    for (const std::vector<Point>* other : {&rep3, &srs32, &srs31, &srs21}) {
      ASSERT_EQ((*other)[i].size, rep1[i].size);
    }
    // The paper: REP1 cheapest, SRS32 about 3x REP1 (Table 1: Rep(3) 2x,
    // RS(3,2) 3.4x). The committed medians read 5.80 < 10.76 < 11.68 us at
    // 2 B and 6.31 < 11.87 < 17.02 us at 2048 B.
    EXPECT_LT(rep1[i].median_us, rep3[i].median_us) << rep1[i].size << " B";
    EXPECT_LT(rep3[i].median_us, srs32[i].median_us) << rep1[i].size << " B";
    // The paper: SRS21 == SRS31 (same per-node work). The largest gap reads
    // 0.2 %; the band is 1 %.
    EXPECT_LE(std::fabs(srs21[i].median_us / srs31[i].median_us - 1), 0.01)
        << rep1[i].size << " B: SRS21 " << srs21[i].median_us
        << " us vs SRS31 " << srs31[i].median_us << " us";
  }
}

TEST(ShapeTest, Fig7GetLatencyIsFlatAcrossSizesAndSchemes) {
  size_t rows = 0;
  for (const auto& [row, points] : Fig7Medians()) {
    if (row.rfind("get", 0) != 0) {
      continue;
    }
    for (const Point& p : points) {
      ++rows;
      // The paper: get about 5 us for every memgest and size. The
      // committed medians read 5.79-6.32 us; the band is [5, 6.5] us.
      EXPECT_GE(p.median_us, 5.0) << row << " " << p.size << " B";
      EXPECT_LE(p.median_us, 6.5) << row << " " << p.size << " B";
    }
  }
  EXPECT_EQ(rows, 12u);
}

// Fig. 8: "move->SRS32      2 B   median   12.76 us   p90 ...", one block
// per destination memgest.
TEST(ShapeTest, Fig8MoveLatencyOrdersDestinationsAsThePaper) {
  std::map<std::string, std::vector<Point>> by_dst;
  for (const std::string& line : GoldenLines("fig8_move.txt")) {
    if (line.rfind("move->", 0) != 0) {
      continue;
    }
    const std::string dst = line.substr(6, line.find(' ') - 6);
    by_dst[dst].push_back({NumberAfter(line, dst), NumberAfter(line, "median")});
  }
  ASSERT_EQ(by_dst.size(), 7u);
  const std::vector<Point>& rep1 = by_dst["REP1"];
  ASSERT_EQ(rep1.size(), 11u);
  for (const auto& [dst, points] : by_dst) {
    ASSERT_EQ(points.size(), rep1.size()) << dst;
  }
  const auto median = [&by_dst](const char* dst, size_t i) {
    return by_dst[dst][i].median_us;
  };
  double rep1_min = INFINITY;
  double rep1_max = 0;
  for (size_t i = 0; i < rep1.size(); ++i) {
    const double size = rep1[i].size;
    for (const auto& [dst, points] : by_dst) {
      ASSERT_EQ(points[i].size, size) << dst;
    }
    // The paper: a move into a more reliable memgest costs more, so the
    // reliable destinations order REP2 < REP3 < REP4 < SRS21 ~ SRS31 <
    // SRS32. The committed medians read 11.63 < 11.76 < 12.18 < 12.36 <
    // 12.76 us at 2 B and 12.34 < 12.57 < 13.27 < 17.06 < 17.75 us at
    // 2048 B.
    const double srs_low = std::min(median("SRS21", i), median("SRS31", i));
    const double srs_high = std::max(median("SRS21", i), median("SRS31", i));
    EXPECT_LT(median("REP2", i), median("REP3", i)) << size << " B";
    EXPECT_LT(median("REP3", i), median("REP4", i)) << size << " B";
    EXPECT_LT(median("REP4", i), srs_low) << size << " B";
    EXPECT_LT(srs_high, median("SRS32", i)) << size << " B";
    // The paper: SRS21 == SRS31 (same per-node work). The largest gap reads
    // 0.16 %; the band is 1 %.
    EXPECT_LE(std::fabs(median("SRS21", i) / median("SRS31", i) - 1), 0.01)
        << size << " B: SRS21 " << median("SRS21", i) << " us vs SRS31 "
        << median("SRS31", i) << " us";
    rep1_min = std::min(rep1_min, rep1[i].median_us);
    rep1_max = std::max(rep1_max, rep1[i].median_us);
  }
  // The paper: a move into REP1 is flat in size at about 5 us. The
  // committed medians read 6.87-7.10 us, max/min 1.033; the band is 1.05.
  EXPECT_LE(rep1_max / rep1_min, 1.05)
      << "move->REP1 spans " << rep1_min << "-" << rep1_max << " us";
}

// Fig. 9: a "REP1:" block of "  t=0.25s  throughput   399984 req/s" rows.
// A scheme's plateau is the mean of its last four samples.
TEST(ShapeTest, Fig9PlateausKeepThePapersRatios) {
  std::map<std::string, std::vector<double>> samples;
  std::string scheme;
  for (const std::string& line : GoldenLines("slow/fig9_throughput.txt")) {
    if (!line.empty() && line[0] != ' ' && line.back() == ':') {
      scheme = line.substr(0, line.size() - 1);
    } else if (line.find("  t=") == 0) {
      samples[scheme].push_back(NumberAfter(line, "throughput"));
    }
  }
  std::map<std::string, double> plateau;
  for (const std::string name : {"REP1", "REP3", "SRS32"}) {
    const std::vector<double>& v = samples[name];
    ASSERT_GE(v.size(), 4u) << name;
    plateau[name] = (v[v.size() - 1] + v[v.size() - 2] + v[v.size() - 3] +
                     v[v.size() - 4]) /
                    4;
  }
  // The paper: REP3 2x and SRS32 4.3x slower than REP1 at saturation. The
  // committed plateaus read 2.18x and 4.02x; the bands are [1.8, 2.6] and
  // [3.4, 5].
  const double rep3 = plateau["REP1"] / plateau["REP3"];
  const double srs32 = plateau["REP1"] / plateau["SRS32"];
  EXPECT_GE(rep3, 1.8);
  EXPECT_LE(rep3, 2.6);
  EXPECT_GE(srs32, 3.4);
  EXPECT_LE(srs32, 5.0);
}

// Fig. 11: "  REP1 ( 95%:  5%):   128006   256015   370258   370052   req/s
// at 128K/256K/512K/1024K offered".
TEST(ShapeTest, Fig11SchemesServeTheSameThroughput) {
  std::map<std::string, std::map<std::string, std::vector<double>>> by_mix;
  for (const std::string& line : GoldenLines("slow/fig11_ycsb.txt")) {
    const size_t open = line.find('(');
    const size_t close = line.find("):");
    if (line.rfind("  ", 0) != 0 || open == std::string::npos ||
        close == std::string::npos) {
      continue;
    }
    const std::string scheme = line.substr(2, line.find(' ', 2) - 2);
    std::istringstream in(line.substr(close + 2));
    for (double v = 0; in >> v;) {
      by_mix[line.substr(open, close - open + 1)][scheme].push_back(v);
    }
  }
  ASSERT_EQ(by_mix.size(), 4u);
  for (const auto& [mix, schemes] : by_mix) {
    ASSERT_EQ(schemes.size(), 4u) << mix;
    const std::vector<double>& first = schemes.begin()->second;
    ASSERT_EQ(first.size(), 4u) << mix;
    for (size_t load = 0; load < first.size(); ++load) {
      double lo = first[load];
      double hi = first[load];
      for (const auto& [scheme, v] : schemes) {
        ASSERT_EQ(v.size(), first.size()) << mix << " " << scheme;
        lo = std::min(lo, v[load]);
        hi = std::max(hi, v[load]);
      }
      // The paper: "no significant difference between storage schemes".
      // The widest spread reads 0.13 %; the band is 1 %.
      EXPECT_LE(hi / lo - 1, 0.01) << mix << " at offered load " << load;
    }
  }
}

// Table 1: "Rep(3)    2 failures    11.34 us (1.87x) ...    3.00x".
TEST(ShapeTest, Table1StorageCostIsExact) {
  std::map<std::string, std::string> storage;
  for (const std::string& line : GoldenLines("slow/table1_tradeoffs.txt")) {
    const std::string scheme = line.substr(0, line.find(' '));
    if (scheme == "Simple" || scheme == "Rep(3)" || scheme == "RS(3,2)") {
      storage[scheme] = line.substr(line.find_last_of(' ') + 1);
    }
  }
  // The paper: 1x / 3x / 1.66x; the storage column is analytic (r, and
  // (k + m) / k = 5/3 printed to two decimals), so it is exact.
  EXPECT_EQ(storage["Simple"], "1.00x");
  EXPECT_EQ(storage["Rep(3)"], "3.00x");
  EXPECT_EQ(storage["RS(3,2)"], "1.67x");
}

// Fig. 12: "      88 KiB metadata: recovery median     44.8 us   p90 ...".
TEST(ShapeTest, Fig12MetadataRecoveryIsLinearInMetadataSize) {
  std::vector<Point> points;
  for (const std::string& line : GoldenLines("fig12_metadata_recovery.txt")) {
    if (line.find("KiB metadata") != std::string::npos) {
      points.push_back({NumberAfter(line, ""), NumberAfter(line, "median")});
    }
  }
  ASSERT_EQ(points.size(), 9u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].median_us, points[i].median_us)
        << "median must strictly grow with metadata size, at "
        << points[i].size << " KiB";
  }
  // The paper: recovery time grows linearly with the metadata fetched. A
  // least-squares line through the nine points reads r^2 = 0.99999 today.
  double sx = 0, sy = 0;
  for (const Point& p : points) {
    sx += p.size;
    sy += p.median_us;
  }
  const double mx = sx / points.size();
  const double my = sy / points.size();
  double sxy = 0, sxx = 0, syy = 0;
  for (const Point& p : points) {
    sxy += (p.size - mx) * (p.median_us - my);
    sxx += (p.size - mx) * (p.size - mx);
    syy += (p.median_us - my) * (p.median_us - my);
  }
  EXPECT_GE(sxy * sxy / (sxx * syy), 0.99) << "fig12 is no longer linear";
  // The paper reads ~300 us at ~1 MiB. The 1104 KiB point reads 474.0 us
  // (was 479.3 us): the band is the paper's number within 2x either way.
  const Point& mib = points[7];
  ASSERT_EQ(mib.size, 1104);
  EXPECT_GE(mib.median_us, 150.0);
  EXPECT_LE(mib.median_us, 600.0);
}

// Fig. 13: "SRS21      512 B  recovery get: median     6.06 us  p90 ...".
TEST(ShapeTest, Fig13BlockRecoveryOrdersSchemesAsThePaper) {
  std::map<std::string, std::vector<Point>> by_scheme;
  for (const std::string& line : GoldenLines("fig13_block_recovery.txt")) {
    if (line.rfind("SRS", 0) != 0) {
      continue;
    }
    const std::string scheme = line.substr(0, line.find(' '));
    by_scheme[scheme].push_back(
        {NumberAfter(line, scheme), NumberAfter(line, "median")});
  }
  ASSERT_EQ(by_scheme.size(), 3u);
  const std::vector<Point>& srs21 = by_scheme["SRS21"];
  const std::vector<Point>& srs31 = by_scheme["SRS31"];
  const std::vector<Point>& srs32 = by_scheme["SRS32"];
  ASSERT_EQ(srs21.size(), 8u);
  ASSERT_EQ(srs31.size(), srs21.size());
  ASSERT_EQ(srs32.size(), srs21.size());
  for (const auto& [scheme, points] : by_scheme) {
    ExpectNonDecreasing(points, scheme);
  }
  for (size_t i = 0; i < srs21.size(); ++i) {
    ASSERT_EQ(srs31[i].size, srs21[i].size);
    ASSERT_EQ(srs32[i].size, srs21[i].size);
    // The paper: SRS21 recovers fastest (k = 2 sources against 3). From
    // 1 KiB up it does here; at 512 B all three sit within 0.1 us, and
    // SRS31 once read 6.04 us against SRS21's 6.06 us.
    if (srs21[i].size >= 1024) {
      EXPECT_LT(srs21[i].median_us, srs31[i].median_us)
          << srs21[i].size << " B";
      EXPECT_LT(srs21[i].median_us, srs32[i].median_us)
          << srs21[i].size << " B";
    }
    // The paper: SRS32 ~ SRS31 (same k, one more parity). The largest gap
    // reads 1.8 % (was 1.3 %); the band is 3 %.
    EXPECT_LE(std::fabs(srs32[i].median_us / srs31[i].median_us - 1), 0.03)
        << srs21[i].size << " B: SRS32 " << srs32[i].median_us
        << " us vs SRS31 " << srs31[i].median_us << " us";
  }
}

// "Rep(3)  (replica copy on demand):" then "  degraded gets median ...".
TEST(ShapeTest, AblationUnavailabilityReplicaCopyBeatsDecode) {
  std::map<std::string, double> degraded;
  std::string scheme;
  for (const std::string& line : GoldenLines("ablation_unavailability.txt")) {
    if (!line.empty() && line[0] != ' ' && line[0] != '#') {
      scheme = line.substr(0, line.find(' '));
    } else if (line.find("degraded gets") != std::string::npos) {
      degraded[scheme] = NumberAfter(line, "median");
    }
  }
  ASSERT_EQ(degraded.size(), 3u);
  // §3.2: a replica serves a degraded get by copy; coding must decode.
  // Rep(3) reads 10.82 us against 18.3-18.9 us for both decode paths.
  EXPECT_LT(degraded["Rep(3)"], degraded["SRS(3,2)"]);
  EXPECT_LT(degraded["Rep(3)"], degraded["SRS(2,1)"]);
}

// "stripe unit   1024 B: 64 KiB recovery median    99.52 us".
TEST(ShapeTest, AblationStripeUnitRecoveryGrowsWithTheUnit) {
  std::vector<Point> points;
  for (const std::string& line : GoldenLines("ablation_stripe_unit.txt")) {
    if (line.rfind("stripe unit", 0) == 0) {
      points.push_back(
          {NumberAfter(line, "stripe unit"), NumberAfter(line, "median")});
    }
  }
  ASSERT_EQ(points.size(), 6u);
  // The paper gives no number (DESIGN.md picks 4 KiB). The median grows
  // with the unit: 1 KiB reads 99.41 us (was 99.52 us), 32 KiB 107.38 us
  // (was 107.68 us).
  ExpectNonDecreasing(points, "stripe unit");
}

// One revoke-then-promote block of chaos_availability.txt.
struct ChaosBlock {
  std::string label;
  double failed_probes = NAN;
  double crash_handled_us = NAN;
  int revocations = -1;
  struct Dip {
    double start_ms;
    double end_ms;
    bool recovered;
  };
  std::vector<Dip> dips;
};

// Parses only the blocks whose label names revoke-then-promote, so the
// check reads the same on outputs that also hold heartbeat-only blocks.
std::vector<ChaosBlock> RevokeThenPromoteBlocks() {
  static const std::regex kCrash(
      R"(crash handled in\s+([0-9.]+) us .*, ([0-9]+) revocations\))");
  static const std::regex kDip(
      R"(\[\s*([0-9.]+),\s*([0-9.]+)\) ms\s+(NOT recovered|recovered))");
  std::vector<ChaosBlock> blocks;
  bool in_block = false;
  for (const std::string& line : GoldenLines("chaos_availability.txt")) {
    std::smatch m;
    if (!line.empty() && line[0] != ' ' && line.back() == ':') {
      in_block = line.find("revoke-then-promote") != std::string::npos;
      if (in_block) {
        blocks.push_back(ChaosBlock{});
        blocks.back().label = line.substr(0, line.find(' '));
      }
    } else if (!in_block) {
      continue;
    } else if (line.find("  probes ") == 0) {
      blocks.back().failed_probes = NumberAfter(line, "(");
    } else if (std::regex_search(line, m, kCrash)) {
      blocks.back().crash_handled_us = std::stod(m[1]);
      blocks.back().revocations = std::stoi(m[2]);
    } else if (std::regex_search(line, m, kDip)) {
      blocks.back().dips.push_back(
          {std::stod(m[1]), std::stod(m[2]), m[3] == "recovered"});
    }
  }
  return blocks;
}

TEST(ShapeTest, ChaosAvailabilityRevokeThenPromoteHidesTheCrash) {
  const std::vector<ChaosBlock> blocks = RevokeThenPromoteBlocks();
  ASSERT_EQ(blocks.size(), 3u);
  for (const ChaosBlock& b : blocks) {
    SCOPED_TRACE(b.label);
    // The plan: crash node 1 at 5 ms, restart at 30 ms; pause the promoted
    // spare from 60 to 68 ms.
    if (b.label == "Rep(1)") {
      // Unreliable data on the crashed node is lost for good (§3.2): the
      // crash dip never recovers.
      ASSERT_FALSE(b.dips.empty());
      EXPECT_GE(b.dips[0].start_ms, 5.0);
      EXPECT_LT(b.dips[0].start_ms, 30.0);
      EXPECT_FALSE(b.dips[0].recovered);
      continue;
    }
    ASSERT_TRUE(b.label == "Rep(3)" || b.label == "SRS(3,2)");
    EXPECT_EQ(b.failed_probes, 0);
    // The revoke round fences the victim at its d = 2 witnesses. The crash
    // is handled in 7.6-11.6 us (2001.6-2007.6 us by the heartbeat timeout
    // alone); the band is 20 us, far below one 1 ms SLI window.
    EXPECT_EQ(b.revocations, 2);
    EXPECT_LT(b.crash_handled_us, 20.0);
    // So no window dips at the crash: only the gray pause shows.
    ASSERT_FALSE(b.dips.empty());
    for (const ChaosBlock::Dip& d : b.dips) {
      EXPECT_GE(d.start_ms, 60.0);
      EXPECT_LE(d.end_ms, 70.0);
      EXPECT_TRUE(d.recovered);
    }
  }
}

}  // namespace
}  // namespace ring
