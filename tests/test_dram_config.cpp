#include <gtest/gtest.h>

#include <stdexcept>

#include "dram/dram_config.hh"
#include "test_config.hh"

using namespace smartref;

TEST(DramConfig, Table1TwoGigabyte)
{
    const DramConfig c = ddr2_2GB();
    EXPECT_EQ(c.org.capacityBytes(), 2 * kGiB);
    EXPECT_EQ(c.org.ranks, 2u);
    EXPECT_EQ(c.org.banks, 4u);
    EXPECT_EQ(c.org.rows, 16384u);
    EXPECT_EQ(c.org.columns, 2048u);
    EXPECT_EQ(c.org.dataWidthBits, 72u);
    EXPECT_EQ(c.timing.retention, 64 * kMillisecond);
    EXPECT_EQ(c.org.totalRows(), 131072u);
    // The Figure 6 baseline anchor.
    EXPECT_DOUBLE_EQ(c.baselineRefreshesPerSecond(), 2048000.0);
    EXPECT_NO_THROW(c.validate());
}

TEST(DramConfig, Table1FourGigabyte)
{
    const DramConfig c = ddr2_4GB();
    EXPECT_EQ(c.org.capacityBytes(), 4 * kGiB);
    EXPECT_EQ(c.org.banks, 8u);
    // The Figure 9 baseline anchor: double the 2 GB module.
    EXPECT_DOUBLE_EQ(c.baselineRefreshesPerSecond(), 4096000.0);
}

TEST(DramConfig, Table2ThreeD64MB)
{
    const DramConfig c = dram3d_64MB();
    EXPECT_EQ(c.org.capacityBytes(), 64 * kMiB);
    EXPECT_EQ(c.org.ranks, 1u);
    EXPECT_EQ(c.org.banks, 4u);
    EXPECT_EQ(c.org.rows, 16384u);
    EXPECT_EQ(c.org.columns, 128u);
    // The Figure 12 baseline anchor.
    EXPECT_DOUBLE_EQ(c.baselineRefreshesPerSecond(), 1024000.0);
    EXPECT_FALSE(c.allowPowerDown);
}

TEST(DramConfig, ThreeD32msDoublesBaseline)
{
    const DramConfig c = dram3d_64MB_32ms();
    EXPECT_EQ(c.timing.retention, 32 * kMillisecond);
    // The Figure 15 baseline anchor.
    EXPECT_DOUBLE_EQ(c.baselineRefreshesPerSecond(), 2048000.0);
}

TEST(DramConfig, ThreeD32MBVariant)
{
    const DramConfig c = dram3d_32MB();
    EXPECT_EQ(c.org.capacityBytes(), 32 * kMiB);
    EXPECT_NO_THROW(c.validate());
}

TEST(DramConfig, RowBytes)
{
    EXPECT_EQ(ddr2_2GB().org.rowBytes(), 16384u);  // 2048 cols x 8 B
    EXPECT_EQ(dram3d_64MB().org.rowBytes(), 1024u); // 128 cols x 8 B
}

TEST(DramConfig, DevicesPerRank)
{
    EXPECT_EQ(ddr2_2GB().org.devicesPerRank(), 9u); // x8 devices, 72-bit
    EXPECT_EQ(dram3d_64MB().org.devicesPerRank(), 1u);
}

TEST(DramConfig, RefreshSpacing)
{
    const DramConfig c = ddr2_2GB();
    EXPECT_EQ(c.refreshSpacing(), 64 * kMillisecond / 131072);
    // Spacing x totalRows must cover the retention interval.
    EXPECT_LE(c.refreshSpacing() * c.org.totalRows(), c.timing.retention);
}

TEST(DramConfig, ValidateRejectsZeroOrganization)
{
    DramConfig c = tcfg::tinyConfig();
    c.org.rows = 0;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, ValidateRejectsNonPowerOfTwoRows)
{
    DramConfig c = tcfg::tinyConfig();
    c.org.rows = 100;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, ValidateRejectsNonPowerOfTwoBanks)
{
    DramConfig c = tcfg::smallConfig();
    c.org.banks = 3;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, ValidateRejectsNonPowerOfTwoRanks)
{
    DramConfig c = tcfg::smallConfig();
    c.org.ranks = 3;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, ValidateRejectsBadTiming)
{
    DramConfig c = tcfg::tinyConfig();
    c.timing.tRC = c.timing.tRAS; // tRAS + tRP no longer fits
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, ValidateRejectsZeroRetention)
{
    DramConfig c = tcfg::tinyConfig();
    c.timing.retention = 0;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(DramConfig, TinyConfigsAreValid)
{
    EXPECT_NO_THROW(tcfg::tinyConfig().validate());
    EXPECT_NO_THROW(tcfg::smallConfig().validate());
}

TEST(DramConfig, EdramPreset)
{
    const DramConfig c = edram_16MB();
    EXPECT_EQ(c.org.capacityBytes(), 16 * kMiB);
    EXPECT_EQ(c.timing.retention, 4 * kMillisecond); // NEC eDRAM [2]
    EXPECT_NO_THROW(c.validate());
    // Refresh pressure is an order of magnitude above the DIMM's.
    EXPECT_DOUBLE_EQ(c.baselineRefreshesPerSecond(), 4096000.0);
    // A row refresh must fit comfortably inside the refresh spacing.
    EXPECT_GT(c.refreshSpacing(), 3 * c.timing.tRFCrow);
}

TEST(DramConfig, FourGBUsesDoubleTheDevices)
{
    // 4 GB comes from x4-width chips: twice the devices per rank, so
    // per-rank energies double relative to the 2 GB module.
    EXPECT_EQ(ddr2_4GB().org.devicesPerRank(),
              2 * ddr2_2GB().org.devicesPerRank());
}
