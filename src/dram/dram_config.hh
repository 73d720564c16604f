/**
 * @file
 * DRAM module configuration: organization, timing and power parameters.
 *
 * Presets reproduce the paper's Table 1 (2 GB / 4 GB DDR2-667 main-memory
 * modules) and Table 2 (64 MB 3D die-stacked DRAM cache), plus a 32 MB 3D
 * variant used in the paper's discussion.
 */

#pragma once

#include <cstdint>
#include <string>

#include "dram/refresh_parallelism.hh"
#include "sim/types.hh"

namespace smartref {

/** Physical organization of one DRAM module. */
struct DramOrganization
{
    std::uint32_t ranks = 2;        ///< independent ranks on the module
    std::uint32_t banks = 4;        ///< banks per rank
    std::uint32_t rows = 16384;     ///< rows per bank
    std::uint32_t columns = 2048;   ///< columns per row
    std::uint32_t dataWidthBits = 72;   ///< module data width (64+8 ECC)
    std::uint32_t deviceWidthBits = 8;  ///< width of one DRAM device
    std::uint32_t burstLength = 4;      ///< transfers per access burst
    std::uint32_t subarraysPerBank = 8; ///< subarrays per bank (SARP)

    /** Rows per subarray (contiguous row ranges map to subarrays). */
    std::uint32_t
    rowsPerSubarray() const
    {
        return rows / subarraysPerBank;
    }

    /** Subarray index a row belongs to. */
    std::uint32_t
    subarrayOf(std::uint32_t row) const
    {
        return row / rowsPerSubarray();
    }

    /** Payload bytes transferred per column access (excludes ECC bits). */
    std::uint32_t
    bytesPerColumn() const
    {
        return (dataWidthBits >= 72 ? dataWidthBits - 8 : dataWidthBits) / 8;
    }

    /** Devices ganged per rank to form the module width. */
    std::uint32_t
    devicesPerRank() const
    {
        return dataWidthBits / deviceWidthBits;
    }

    /** Usable capacity in bytes (ECC excluded). */
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t(ranks) * banks * rows * columns *
               bytesPerColumn();
    }

    /** Row span in bytes (one row across the module width). */
    std::uint64_t
    rowBytes() const
    {
        return std::uint64_t(columns) * bytesPerColumn();
    }

    /** Total number of (rank, bank, row) refresh targets. */
    std::uint64_t
    totalRows() const
    {
        return std::uint64_t(ranks) * banks * rows;
    }
};

/** DRAM timing parameters, all in ticks (picoseconds). */
struct DramTiming
{
    Tick tCK = 1500 * kPicosecond;      ///< clock period (DDR2-667)
    Tick tRCD = 15 * kNanosecond;       ///< activate to read/write
    Tick tRP = 15 * kNanosecond;        ///< precharge duration
    Tick tCL = 15 * kNanosecond;        ///< CAS latency
    Tick tRAS = 45 * kNanosecond;       ///< activate to precharge (min)
    Tick tRC = 60 * kNanosecond;        ///< activate to activate, same bank
    Tick tWR = 15 * kNanosecond;        ///< write recovery before precharge
    Tick tRTP = 7500 * kPicosecond;     ///< read to precharge
    Tick tRRD = 7500 * kPicosecond;     ///< activate to activate, same rank
    Tick tBurst = 6 * kNanosecond;      ///< data-bus occupancy per burst
    Tick tRFCrow = 70 * kNanosecond;    ///< single-row refresh duration [10]
    Tick tXP = 6 * kNanosecond;         ///< power-down exit latency
    Tick retention = 64 * kMillisecond; ///< data retention / refresh interval
    Tick powerDownDelay = 120 * kNanosecond; ///< idle time before power-down
};

/**
 * Micron-style IDD power parameters for one DRAM device.
 *
 * Energies are computed per command from the current deltas over the
 * relevant interval, times VDD, times the number of ganged devices, as in
 * the Micron power calculator methodology that DRAMsim also follows.
 * Defaults approximate a 1 Gb DDR2-667 device datasheet.
 */
struct DramPowerParams
{
    double vdd = 1.8;        ///< supply voltage (V)
    double idd0 = 0.085;     ///< one-bank activate-precharge current (A)
    double idd2p = 0.015;    ///< precharge power-down standby current (A)
    double idd2n = 0.030;    ///< precharge standby current (A)
    double idd3n = 0.045;    ///< active standby current (A)
    double idd4r = 0.125;    ///< burst read current (A)
    double idd4w = 0.135;    ///< burst write current (A)
    double idd5r = 0.125;    ///< single-row refresh current (A)
};

/** A complete module configuration with a human-readable name. */
struct DramConfig
{
    std::string name = "ddr2-2GB";
    DramOrganization org;
    DramTiming timing;
    DramPowerParams power;

    /**
     * Independent memory channels. `org` describes ONE channel's
     * module; a config with `channels > 1` is simulated as that many
     * isolated per-channel systems (own event queue, controller, DRAM
     * and refresh policy) advanced in epoch lock-step and merged
     * deterministically — see harness/sharded.hh and docs/scaling.md.
     * The historical single-channel behaviour is channels == 1.
     */
    std::uint32_t channels = 1;

    /**
     * Whether ranks may enter precharge power-down when idle. Main-memory
     * DIMMs do (the ITSY-style low-power baseline); the 3D DRAM cache is
     * kept in standby because it is on the processor's access path.
     */
    bool allowPowerDown = true;

    /**
     * A 3D die-stacked DRAM cache (paper Section 7.2) rather than main
     * memory: System then puts a DramCache in front of this module and
     * a CBR-refreshed SystemConfig::mainMem behind it. The dram3d_*
     * presets set it.
     */
    bool stackedCache = false;

    /**
     * How refreshes overlap with demand accesses. PerBank is the
     * historical (and default) behaviour: a refresh occupies only its
     * own bank. See refresh_parallelism.hh for the full family.
     */
    RefreshParallelism parallelism = RefreshParallelism::PerBank;

    /**
     * HiRA-style concurrent activation: in SARP modes, allow an
     * ACTIVATE to a different subarray while a refresh is in flight in
     * the same bank without the cross-subarray serialization penalty.
     */
    bool hiraConcurrentActivation = false;

    /**
     * Whether a refresh of `refreshRow` implicitly closes an open page
     * on `openRow` of the same bank. Without subarrays every refresh
     * closes the bank's page; with the SARP subarray model only a
     * refresh landing in the open row's own subarray does. Shared by
     * the device model (power/ledger accounting) and the controller
     * (policy row-closed notifications) so the two cannot diverge.
     */
    bool
    refreshClosesPage(std::uint32_t openRow, std::uint32_t refreshRow) const
    {
        if (!parallelismUsesSubarrays(parallelism))
            return true;
        return org.subarrayOf(openRow) == org.subarrayOf(refreshRow);
    }

    /** Baseline distributed-refresh commands per second (all rows). */
    double
    baselineRefreshesPerSecond() const
    {
        return static_cast<double>(org.totalRows()) /
               (static_cast<double>(timing.retention) /
                static_cast<double>(kSecond));
    }

    /** Tick gap between successive baseline distributed refreshes. */
    Tick
    refreshSpacing() const
    {
        return timing.retention / org.totalRows();
    }

    /** Usable capacity across all channels (ECC excluded). */
    std::uint64_t
    totalCapacityBytes() const
    {
        return std::uint64_t(channels) * org.capacityBytes();
    }

    /** Refresh targets across all channels. */
    std::uint64_t
    totalRowsAllChannels() const
    {
        return std::uint64_t(channels) * org.totalRows();
    }

    /** Validate internal consistency; fatals on error. */
    void validate() const;
};

/** @name Paper configurations. */
///@{

/** Table 1: 2 GB DDR2-667 module (2 ranks x 4 banks x 16384 rows). */
DramConfig ddr2_2GB();

/** Table 1 (4 GB variant): 8 banks, doubling the refresh targets. */
DramConfig ddr2_4GB();

/** Table 2: 64 MB 3D die-stacked DRAM cache, 64 ms retention. */
DramConfig dram3d_64MB();

/** 64 MB 3D DRAM at the hot-die 32 ms retention rate. */
DramConfig dram3d_64MB_32ms();

/** 32 MB 3D DRAM variant mentioned in Section 6. */
DramConfig dram3d_32MB();

/**
 * A 16 MB embedded DRAM macro with the order-of-magnitude shorter
 * retention the paper's introduction cites (4 ms, NEC eDRAM [2]).
 * Refresh pressure is extreme here, which is exactly where
 * access-driven skipping pays off most per access.
 */
DramConfig edram_16MB();

/** @name Server-scale multi-channel configurations (docs/scaling.md). */
///@{

/** 128 GB server machine: 8 channels x 16 GB DDR2-style modules. */
DramConfig server_128GB();

/** 256 GB server machine: 8 channels x 32 GB. */
DramConfig server_256GB();

/** 512 GB server machine: 16 channels x 32 GB. */
DramConfig server_512GB();

///@}

///@}

/**
 * Look up a preset by its CLI name: "2gb", "4gb", "3d64", "3d64-32ms",
 * "3d32", "edram", "128gb", "256gb" or "512gb". Fatal on an unknown
 * name.
 */
DramConfig dramConfigByName(const std::string &name);

/**
 * True when the named preset sets DramConfig::stackedCache; fatal on an
 * unknown name, like dramConfigByName().
 */
bool isThreeDConfigName(const std::string &name);

} // namespace smartref
