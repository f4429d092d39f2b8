/**
 * @file
 * The TextTable renderer used by the benchmark harnesses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

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
