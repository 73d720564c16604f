#include <gtest/gtest.h>

#include "core/sram_energy_model.hh"
#include "ctrl/bus_energy_model.hh"
#include "harness/system.hh"

using namespace smartref;

TEST(BusEnergy, Table3Anchor)
{
    // With the paper's Table 3 constants and 2 modules:
    // Cload = 36*0.21 + 102*0.1 + 2*3 = 23.76 pF; C = 1.3*Cload.
    StatGroup root("root");
    BusEnergyModel bus(BusEnergyParams{}, &root);
    EXPECT_NEAR(bus.wireCapacitance(), 30.888e-12, 1e-15);
    // E = C * VDD^2 * width = 30.888pF * 3.24 * 15.
    EXPECT_NEAR(bus.energyPerAccess(), 30.888e-12 * 1.8 * 1.8 * 15.0,
                1e-13);
    // On the 2 GB module's 16-bit address bus: 1.601 nJ per posted
    // refresh address.
    StatGroup root2("root2");
    BusEnergyModel bus2(deriveBusParams(BusEnergyParams{}, ddr2_2GB().org),
                        &root2);
    EXPECT_NEAR(bus2.energyPerAccess(), 1.601e-9, 0.0005e-9);
}

TEST(BusEnergy, AccumulatesPerAccess)
{
    StatGroup root("root");
    BusEnergyModel bus(BusEnergyParams{}, &root);
    bus.recordAccesses(10);
    bus.recordAccesses(1);
    EXPECT_EQ(bus.accesses(), 11u);
    EXPECT_NEAR(bus.totalEnergy(), 11 * bus.energyPerAccess(), 1e-18);
}

TEST(BusEnergy, MoreModulesMoreCapacitance)
{
    StatGroup root("root");
    BusEnergyParams one{};
    one.numModules = 1;
    BusEnergyParams four{};
    four.numModules = 4;
    BusEnergyModel busOne(one, &root);
    StatGroup root2("root2");
    BusEnergyModel busFour(four, &root2);
    EXPECT_GT(busFour.wireCapacitance(), busOne.wireCapacitance());
}

TEST(BusEnergy, DerivedParamsFollowOrganization)
{
    const auto p2 = deriveBusParams(BusEnergyParams{}, ddr2_2GB().org);
    EXPECT_EQ(p2.numModules, 2u);
    EXPECT_EQ(p2.busWidthBits, 16u); // 14 row + 2 bank bits
    const auto p4 = deriveBusParams(BusEnergyParams{}, ddr2_4GB().org);
    EXPECT_EQ(p4.busWidthBits, 17u); // 14 row + 3 bank bits
}

TEST(SramEnergy, ScalesWithArraySize)
{
    StatGroup root("root");
    SramEnergyModel small(8.0, SramEnergyParams{}, &root);
    StatGroup root2("root2");
    SramEnergyModel large(48.0, SramEnergyParams{}, &root2);
    EXPECT_GT(large.readEnergy(), small.readEnergy());
    EXPECT_GT(large.writeEnergy(), large.readEnergy());
}

TEST(SramEnergy, EnergyForMatchesRecordTraffic)
{
    StatGroup root("root");
    SramEnergyModel sram(48.0, SramEnergyParams{}, &root);
    const double expected = sram.energyFor(100, 50);
    sram.recordTraffic(100, 50);
    EXPECT_NEAR(sram.totalEnergy(), expected, expected * 1e-12);
    EXPECT_DOUBLE_EQ(expected, 100 * sram.readEnergy() +
                                   50 * sram.writeEnergy());
}

TEST(SramEnergy, PaperScaleMagnitude)
{
    // The 48 KB counter array of the 2 GB module: a per-access energy
    // in the tens of pJ, so the walk overhead stays far below the
    // refresh savings (Section 6's conclusion).
    StatGroup root("root");
    SramEnergyModel sram(48.0, SramEnergyParams{}, &root);
    EXPECT_GT(sram.readEnergy(), 1e-12);
    EXPECT_LT(sram.readEnergy(), 1e-10);
}

TEST(SramEnergy, RejectsEmptyArray)
{
    StatGroup root("root");
    EXPECT_THROW(SramEnergyModel(0.0, SramEnergyParams{}, &root),
                 std::logic_error);
}
