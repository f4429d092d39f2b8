/**
 * @file
 * The TextTable renderer used by the benchmark harnesses, and their
 * benchmark x column table builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "../bench/harness.hh"
#include "sim/text_table.hh"

using namespace fh;

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "23456"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // The value column starts at the same offset in both data rows.
    auto lines_start = out.find("a ");
    auto second = out.find("longer-name");
    ASSERT_NE(lines_start, std::string::npos);
    ASSERT_NE(second, std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.253, 1), "25.3%");
    EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(BenchmarkTable, MeanRowTakesItsColumnsPrecision)
{
    // Figure 8(b)'s rates: 0.01-0.07% rows must not read `mean 0.0%`.
    const std::vector<workload::BenchmarkInfo> benchmarks = {
        *workload::find("ocean"), *workload::find("400.perl")};
    const double rates[2][2] = {{0.0001, 0.0212}, {0.0007, 0.0214}};
    std::ostringstream os;
    bench::benchmarkTable(
        benchmarks, {"PBFS", "PBFS-biased"},
        [&](size_t b, size_t c) { return rates[b][c]; }, 2)
        .print(os);
    EXPECT_EQ(os.str(), "benchmark  PBFS   PBFS-biased\n"
                        "-----------------------------\n"
                        "ocean      0.01%  2.12%\n"
                        "400.perl   0.07%  2.14%\n"
                        "mean       0.04%  2.13%\n");
}
