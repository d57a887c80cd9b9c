// manet_lint rule-engine tests.
//
// Each rule is exercised three ways: a positive fixture where it must fire,
// a suppressed fixture where a tagged rationale silences it, and the clean
// fixture where nothing fires. Fixtures live in tests/lint_fixtures/ (the
// directory is excluded from the real-tree lint walk). In-memory lint_text()
// cases cover the parsing subtleties: previous-line suppression reach,
// paired-header container declarations, file-level disables, and the
// comment/string stripper.

#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using manet::lint::Finding;
using manet::lint::lint_file;
using manet::lint::lint_text;

const std::string kFixtures = MANET_LINT_FIXTURES;

std::vector<std::string> rule_ids(const std::vector<Finding>& fs) {
  std::vector<std::string> ids;
  for (const Finding& f : fs) ids.push_back(f.rule);
  return ids;
}

int count_rule(const std::vector<Finding>& fs, const std::string& id) {
  return static_cast<int>(std::count_if(
      fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == id; }));
}

/// Lint a fixture file's text as if it lived at `fake_path` — MLNT011 and
/// MLNT015 apply only under some paths (src/, src/phy/, ...) and the fixture
/// directory is deliberately outside all of those.
std::vector<Finding> lint_fixture_as(const std::string& name, const std::string& fake_path) {
  std::ifstream in(kFixtures + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_text(fake_path, ss.str());
}

// ---------------------------------------------------------------------------
// Fixture files
// ---------------------------------------------------------------------------

TEST(LintFixtures, RandPlusHashOrderIterationFails) {
  // The acceptance fixture: rand() + unannotated unordered iteration in
  // event-scheduling code must both be reported.
  const auto fs = lint_file(kFixtures + "/rand_and_hash_order.cpp");
  EXPECT_GE(count_rule(fs, "MLNT001"), 1) << "rand() not flagged";
  EXPECT_GE(count_rule(fs, "MLNT006"), 1) << "hash-order iteration not flagged";
}

TEST(LintFixtures, TaggedRationalesSuppress) {
  EXPECT_TRUE(lint_file(kFixtures + "/suppressed_ok.cpp").empty());
  EXPECT_TRUE(lint_file(kFixtures + "/wall_clock_suppressed.cpp").empty());
}

TEST(LintFixtures, CleanHeaderIsClean) {
  EXPECT_TRUE(lint_file(kFixtures + "/clean.hpp").empty());
}

TEST(LintFixtures, WallClockReadsFlagged) {
  const auto fs = lint_file(kFixtures + "/wall_clock.cpp");
  EXPECT_GE(count_rule(fs, "MLNT003"), 1) << "time() not flagged";
  EXPECT_GE(count_rule(fs, "MLNT004"), 1) << "std::chrono not flagged";
}

TEST(LintFixtures, RandomDeviceAndStrayEnginesFlagged) {
  const auto fs = lint_file(kFixtures + "/random_device.cpp");
  EXPECT_GE(count_rule(fs, "MLNT002"), 1) << "std::random_device not flagged";
  EXPECT_GE(count_rule(fs, "MLNT005"), 2) << "<random> engine/distribution not flagged";
}

TEST(LintFixtures, MissingPragmaOnceFlagged) {
  EXPECT_EQ(rule_ids(lint_file(kFixtures + "/missing_pragma.hpp")),
            std::vector<std::string>{"MLNT007"});
}

TEST(LintFixtures, FloatEqualityFlagged) {
  EXPECT_EQ(count_rule(lint_file(kFixtures + "/float_eq.cpp"), "MLNT008"), 2);
}

TEST(LintFixtures, ScenarioConfigAggregateFlagged) {
  // Exactly the three brace constructions fire; default construction,
  // copies, reference parameters, and the tagged suppression stay clean.
  const auto fs = lint_file(kFixtures + "/scenario_aggregate.cpp");
  EXPECT_EQ(count_rule(fs, "MLNT010"), 3);
  EXPECT_EQ(static_cast<int>(fs.size()), 3) << "unexpected extra findings";
}

TEST(LintText, ScenarioConfigAggregateScopedToOutsideScenarioDir) {
  const std::string code = "ScenarioConfig cfg{};\n";
  // The scenario layer itself assembles configs by hand — exempt from
  // MLNT010 (the same line is still a mutable global, i.e. MLNT011 bait,
  // which is why the assertion is rule-specific).
  EXPECT_EQ(count_rule(lint_text("src/scenario/scenario.cpp", code, ""), "MLNT010"), 0);
  EXPECT_EQ(count_rule(lint_text("bench/tab_summary.cpp", code, ""), "MLNT010"), 1);
}

TEST(LintFixtures, MalformedSuppressionsAreFindingsAndDoNotSuppress) {
  const auto fs = lint_file(kFixtures + "/bad_suppression.cpp");
  EXPECT_EQ(count_rule(fs, "MLNT009"), 3);  // bad disable, unknown tag, no rationale
  EXPECT_EQ(count_rule(fs, "MLNT001"), 2);  // the broken suppressions silenced nothing
}

// ---------------------------------------------------------------------------
// Engine details (in-memory)
// ---------------------------------------------------------------------------

TEST(LintEngine, PairedHeaderDeclaresTheContainer) {
  // The member is declared in the header; the .cpp only iterates it. The
  // scan of the .cpp must pick the declaration up from paired_text.
  const std::string header = "#pragma once\n#include <unordered_map>\n"
                             "struct R { std::unordered_map<int, int> table_; void f(); };\n";
  const std::string cpp = "void R::f() {\n"
                          "  for (const auto& [k, v] : table_) { sim().schedule(v, k); }\n"
                          "}\n";
  const auto fs = lint_text("fake/routing/r.cpp", cpp, header);
  EXPECT_EQ(count_rule(fs, "MLNT006"), 1);
}

TEST(LintEngine, OrderIndependentAnnotationOnPreviousLine) {
  const std::string header = "#pragma once\n#include <unordered_map>\n"
                             "struct R { std::unordered_map<int, int> table_; void f(); };\n";
  const std::string cpp = "void R::f() {\n"
                          "  // manet-lint: order-independent - max is commutative over ints\n"
                          "  for (const auto& [k, v] : table_) { sim().schedule(v, k); }\n"
                          "}\n";
  EXPECT_TRUE(lint_text("fake/routing/r.cpp", cpp, header).empty());
}

TEST(LintEngine, UnorderedIterationIgnoredOutsideEventCode) {
  // No /routing/ path, no scheduling markers: hash order cannot reach the
  // simulation, so MLNT006 stays quiet.
  const std::string cpp = "#include <unordered_map>\n"
                          "std::unordered_map<int, int> hist;\n"
                          "int total() { int t = 0; for (const auto& [k, v] : hist) t += v; "
                          "return t; }\n";
  EXPECT_TRUE(lint_text("tools/histogram.cpp", cpp).empty());
}

TEST(LintEngine, FileLevelDisable) {
  const std::string cpp = "// manet-lint: disable(MLNT001) - fixture exercising file-level "
                          "opt-out\n"
                          "#include <cstdlib>\n"
                          "int f() { return std::rand(); }\n";
  EXPECT_TRUE(lint_text("x.cpp", cpp).empty());
}

TEST(LintEngine, PatternsInsideStringsAndCommentsIgnored) {
  const std::string cpp = "const char* kHelp = \"never call rand() or time() here\";\n"
                          "// rand() in a comment is documentation, not a call\n"
                          "/* std::chrono discussion */\n";
  EXPECT_TRUE(lint_text("x.cpp", cpp).empty());
}

TEST(LintEngine, IdentifiersContainingBannedNamesNotFlagged) {
  const std::string cpp = "double airtime(int bits);\n"
                          "long next_time(long t) { return airtime(8) > 0 ? t : t + 1; }\n"
                          "struct T { long time; };\n"
                          "long get(T& t) { return t.time; }\n";
  EXPECT_TRUE(lint_text("x.cpp", cpp).empty());
}

TEST(LintEngine, RuleTableHoldsThirteenRules) {
  // MLNT001-011 and MLNT014-015; the ids of retired rules are not reused.
  EXPECT_EQ(manet::lint::rules().size(), 13u);
}

// ---------------------------------------------------------------------------
// Scoped rules (MLNT011, MLNT014, MLNT015): each covers only part of the tree
// ---------------------------------------------------------------------------

TEST(ScopedRules, MutableStaticsFlaggedInSrc) {
  const auto fs = lint_fixture_as("mutable_globals.cpp", "src/fake/globals.cpp");
  EXPECT_EQ(count_rule(fs, "MLNT011"), 4) << "namespace-scope, brace-init static, "
                                             "static data member, function-local static";
}

TEST(ScopedRules, MutableStaticsSuppressedByRationale) {
  EXPECT_TRUE(lint_fixture_as("mutable_globals_suppressed.cpp", "src/fake/globals.cpp").empty());
}

TEST(ScopedRules, MutableStaticsIgnoredOutsideSrc) {
  // Tools/tests may keep process-global state; only simulator code runs on
  // SweepRunner workers.
  EXPECT_EQ(count_rule(lint_fixture_as("mutable_globals.cpp", "tools/fake/globals.cpp"),
                       "MLNT011"),
            0);
}

TEST(ScopedRules, FullNodeScanFlaggedInHotPathLayers) {
  const auto fs = lint_fixture_as("full_node_scan.cpp", "src/phy/fake.cpp");
  EXPECT_EQ(count_rule(fs, "MLNT015"), 4)
      << "two range-fors (trx_, nodes_) and two index loops (node_count, mob_.size)";
  EXPECT_EQ(count_rule(lint_fixture_as("full_node_scan.cpp", "src/mac/fake.cpp"), "MLNT015"), 4);
  EXPECT_EQ(count_rule(lint_fixture_as("full_node_scan.cpp", "src/net/fake.cpp"), "MLNT015"), 4);
}

TEST(ScopedRules, FullNodeScanSuppressedByRationale) {
  EXPECT_TRUE(
      lint_fixture_as("full_node_scan_suppressed.cpp", "src/phy/fake.cpp").empty());
}

TEST(ScopedRules, FullNodeScanIgnoredOutsideHotPathLayers) {
  // Scenario setup and tools legitimately walk every node; the rule scopes
  // to the per-event layers only.
  EXPECT_EQ(
      count_rule(lint_fixture_as("full_node_scan.cpp", "src/scenario/fake.cpp"), "MLNT015"), 0);
  EXPECT_EQ(count_rule(lint_fixture_as("full_node_scan.cpp", "tools/fake.cpp"), "MLNT015"), 0);
}

TEST(ScopedRules, MissingRestartOverrideFlagged) {
  const auto fs = lint_file(kFixtures + "/missing_restart.cpp");
  ASSERT_EQ(count_rule(fs, "MLNT014"), 1) << "NaiveFlood only; CleanProtocol overrides, "
                                             "NotAProtocol does not derive";
  for (const Finding& f : fs) {
    if (f.rule == "MLNT014") {
      EXPECT_NE(f.message.find("NaiveFlood"), std::string::npos);
    }
  }
}

TEST(ScopedRules, MissingRestartSuppressedByRationale) {
  EXPECT_TRUE(lint_file(kFixtures + "/missing_restart_suppressed.cpp").empty());
}

// ---------------------------------------------------------------------------
// CLI contract + output formats
// ---------------------------------------------------------------------------

TEST(LintCli, NonexistentPathIsAHardError) {
  // A typo'd path in CI must fail the job, not lint nothing and pass.
  const char* argv[] = {"manet_lint", "no/such/dir"};
  EXPECT_EQ(manet::lint::run_cli(2, argv), 2);
}

TEST(LintCli, UnknownOptionAndFormatRejected) {
  const char* bad_opt[] = {"manet_lint", "--bogus", "."};
  EXPECT_EQ(manet::lint::run_cli(3, bad_opt), 2);
  const char* bad_fmt[] = {"manet_lint", "--format=xml", "."};
  EXPECT_EQ(manet::lint::run_cli(3, bad_fmt), 2);
}

TEST(LintFormat, HumanAndGithubRenderings) {
  const Finding f{"src/a.cpp", 12, "MLNT003", "host clock read"};
  EXPECT_EQ(manet::lint::format_finding(f, manet::lint::Format::kHuman),
            "src/a.cpp:12: MLNT003 [wall-clock-call] host clock read");
  EXPECT_EQ(manet::lint::format_finding(f, manet::lint::Format::kGithub),
            "::error file=src/a.cpp,line=12,title=MLNT003 wall-clock-call::host clock read");
}

}  // namespace
