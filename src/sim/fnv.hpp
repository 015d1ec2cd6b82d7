/**
 * @file
 * FNV-1a over 64-bit words, low byte first: the one fold behind every
 * digest of simulated results.
 */

#ifndef BPD_SIM_FNV_HPP
#define BPD_SIM_FNV_HPP

#include <cstdint>

namespace bpd::sim {

/** FNV-1a offset basis: the digest of nothing. */
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ull;

/** Fold the eight bytes of @p v into the digest @p h. */
constexpr std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace bpd::sim

#endif // BPD_SIM_FNV_HPP
