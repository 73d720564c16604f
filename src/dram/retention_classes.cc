#include "dram/retention_classes.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace smartref {

RetentionClassMap::RetentionClassMap(std::uint64_t totalRows,
                                     const RetentionClassParams &params)
    : params_(params), multipliers_(totalRows, 1)
{
    SMARTREF_ASSERT(!params.classes.empty(), "no retention classes");
    double fracSum = 0.0;
    std::uint32_t prev = 0;
    for (const auto &[mult, frac] : params.classes) {
        SMARTREF_ASSERT(mult > prev, "multipliers must ascend");
        SMARTREF_ASSERT((mult & (mult - 1)) == 0,
                        "multiplier ", mult, " must be a power of two");
        SMARTREF_ASSERT(mult <= 255, "multiplier too large");
        SMARTREF_ASSERT(frac >= 0.0, "negative class fraction");
        fracSum += frac;
        prev = mult;
        maxMultiplier_ = mult;
    }
    SMARTREF_ASSERT(std::abs(fracSum - 1.0) < 1e-9,
                    "class fractions must sum to 1, got ", fracSum);

    Rng rng(params.seed);
    for (auto &m : multipliers_) {
        double pick = rng.nextDouble();
        for (const auto &[mult, frac] : params.classes) {
            if (pick < frac) {
                m = static_cast<std::uint8_t>(mult);
                break;
            }
            pick -= frac;
            m = static_cast<std::uint8_t>(mult); // numeric tail safety
        }
    }
}

std::uint64_t
RetentionClassMap::population(std::uint32_t multiplier) const
{
    std::uint64_t n = 0;
    for (std::uint8_t m : multipliers_)
        n += (m == multiplier);
    return n;
}

double
RetentionClassMap::idealRefreshRate(Tick nominalRetention) const
{
    const double nominalSec = static_cast<double>(nominalRetention) /
                              static_cast<double>(kSecond);
    double rate = 0.0;
    for (const auto &cls : params_.classes)
        rate += static_cast<double>(population(cls.first)) /
                (nominalSec * cls.first);
    return rate;
}

} // namespace smartref
