/**
 * @file
 * Simulation fidelity tiers (DESIGN.md §12).
 *
 * The cycle-accurate model runs at ~0.1–1 M simulated cycles per wall
 * second, which caps experiments at toy matrices. Two faster tiers trade
 * timing fidelity for throughput while keeping every kernel *output*
 * bitwise identical to the detailed engine:
 *
 *  - Functional: the merge/transpose/SpMV/SpGEMM semantics are advanced
 *    directly (a stable k-way software merge replicating the hardware
 *    tree's slot-order tiebreak and round structure); puCycles comes
 *    from an analytical per-iteration model.
 *  - Sampled: SMARTS-style interleaving — every periodCycles of
 *    estimated time a windowCycles-long cycle-accurate measurement
 *    window runs on a throwaway PU/controller pair (warm-primed with
 *    the functional stream state), and the gaps between windows are
 *    fast-forwarded at the measured per-window merge rates, with a
 *    variance-derived confidence interval on the extrapolation.
 */

#ifndef MENDA_MENDA_SIM_MODE_HH
#define MENDA_MENDA_SIM_MODE_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "common/types.hh"

namespace menda::core
{

/** Fidelity tier of a MendaSystem run. */
enum class SimMode : std::uint8_t
{
    Detailed,   ///< full cycle-accurate model (the default)
    Functional, ///< semantics only; analytical cycle estimate
    Sampled,    ///< periodic detailed windows + functional fast-forward
};

/** Knobs of the Sampled tier (ignored in the other modes). */
struct SampledConfig
{
    Cycle windowCycles = 2048;   ///< detailed cycles per measurement window
    Cycle periodCycles = 131072; ///< estimated cycles between window starts
    Cycle warmupCycles = 4096;   ///< window prefix excluded from the rate

    bool operator==(const SampledConfig &other) const = default;
};

inline const char *
simModeName(SimMode mode)
{
    switch (mode) {
      case SimMode::Detailed: return "detailed";
      case SimMode::Functional: return "functional";
      case SimMode::Sampled: return "sampled";
    }
    return "?";
}

/**
 * Parse a --sim-mode spec: "detailed", "functional", "sampled", or
 * "sampled:W,P[,WARM]" (window, period, and optional warmup cycles).
 * Returns false on a malformed spec; @p mode / @p sampled are untouched
 * then.
 */
inline bool
parseSimMode(const std::string &spec, SimMode &mode,
             SampledConfig &sampled)
{
    if (spec == "detailed") {
        mode = SimMode::Detailed;
        return true;
    }
    if (spec == "functional") {
        mode = SimMode::Functional;
        return true;
    }
    if (spec == "sampled") {
        mode = SimMode::Sampled;
        return true;
    }
    if (spec.rfind("sampled:", 0) != 0)
        return false;
    // Each field must be a complete unsigned decimal: from_chars rejects
    // a sign, and the full-match check rejects trailing characters.
    const auto parse_field = [](std::string_view text, Cycle &out) {
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, out);
        return ec == std::errc() && ptr == end;
    };
    const std::string_view args = std::string_view(spec).substr(8);
    const std::size_t comma = args.find(',');
    if (comma == std::string_view::npos)
        return false;
    std::string_view rest = args.substr(comma + 1);
    Cycle w = 0, p = 0, warm = sampled.warmupCycles;
    if (const std::size_t comma2 = rest.find(',');
        comma2 != std::string_view::npos) {
        if (!parse_field(rest.substr(comma2 + 1), warm))
            return false;
        rest = rest.substr(0, comma2);
    }
    if (!parse_field(args.substr(0, comma), w) || !parse_field(rest, p) ||
        w == 0 || p == 0)
        return false;
    mode = SimMode::Sampled;
    sampled.windowCycles = w;
    sampled.periodCycles = p;
    sampled.warmupCycles = warm;
    return true;
}

} // namespace menda::core

#endif // MENDA_MENDA_SIM_MODE_HH
