// Diagnostics::sort(): deterministic finding order regardless of which
// compiler stage or analysis pass emitted first — the golden lint corpus
// depends on it.
#include "adl/diagnostics.h"

#include <gtest/gtest.h>

namespace aars::adl {
namespace {

TEST(DiagnosticsSortTest, ErrorsBeforeWarningsBeforeInfo) {
  Diagnostics report;
  report.add(Severity::kInfo, "c", "s", "m", 1);
  report.add(Severity::kWarning, "c", "s", "m", 1);
  report.add(Severity::kError, "c", "s", "m", 9);
  report.sort();
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.items[0].severity, Severity::kError);
  EXPECT_EQ(report.items[1].severity, Severity::kWarning);
  EXPECT_EQ(report.items[2].severity, Severity::kInfo);
}

TEST(DiagnosticsSortTest, SameSeverityOrdersByLineThenColumn) {
  Diagnostics report;
  report.add(Severity::kError, "c", "s", "m", 5, 1);
  report.add(Severity::kError, "c", "s", "m", 2, 7);
  report.add(Severity::kError, "c", "s", "m", 2, 3);
  report.sort();
  EXPECT_EQ(report.items[0].line, 2);
  EXPECT_EQ(report.items[0].column, 3);
  EXPECT_EQ(report.items[1].line, 2);
  EXPECT_EQ(report.items[1].column, 7);
  EXPECT_EQ(report.items[2].line, 5);
}

TEST(DiagnosticsSortTest, LocationTiesBreakOnCodeSubjectMessage) {
  Diagnostics report;
  report.add(Severity::kWarning, "zeta", "a", "a", 4);
  report.add(Severity::kWarning, "alpha", "b", "b", 4);
  report.add(Severity::kWarning, "alpha", "a", "z", 4);
  report.add(Severity::kWarning, "alpha", "a", "a", 4);
  report.sort();
  EXPECT_EQ(report.items[0].code, "alpha");
  EXPECT_EQ(report.items[0].subject, "a");
  EXPECT_EQ(report.items[0].message, "a");
  EXPECT_EQ(report.items[1].message, "z");
  EXPECT_EQ(report.items[2].subject, "b");
  EXPECT_EQ(report.items[3].code, "zeta");
}

TEST(DiagnosticsSortTest, SortIsIdempotent) {
  Diagnostics report;
  report.add(Severity::kWarning, "b", "s", "m", 3);
  report.add(Severity::kError, "a", "s", "m", 7);
  report.add(Severity::kInfo, "c", "s", "m", 1);
  report.sort();
  const std::vector<Diagnostic> once = report.items;
  report.sort();
  ASSERT_EQ(report.items.size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(report.items[i].code, once[i].code) << i;
    EXPECT_EQ(report.items[i].line, once[i].line) << i;
  }
}

}  // namespace
}  // namespace aars::adl
