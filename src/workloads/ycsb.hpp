/**
 * @file
 * YCSB core-workload generators (A-F), used by the WiredTiger, BPF-KV
 * and KVell evaluation models (Sections 6.4, 6.5).
 *
 *   A: 50% read / 50% update, zipfian
 *   B: 95% read /  5% update, zipfian
 *   C: 100% read, zipfian
 *   D: 95% read (latest) / 5% insert
 *   E: 95% scan / 5% insert, zipfian start keys
 *   F: 50% read / 50% read-modify-write, zipfian
 */

#ifndef BPD_WORKLOADS_YCSB_HPP
#define BPD_WORKLOADS_YCSB_HPP

#include <cstdint>

#include "sim/random.hpp"

namespace bpd::wl {

enum class Ycsb { A, B, C, D, E, F };

const char *toString(Ycsb w);

struct YcsbOp
{
    enum class Kind : std::uint8_t { Read, Update, Insert, Scan, Rmw };
    Kind kind;
    std::uint64_t key;
    unsigned scanLen = 0;
};

class YcsbGenerator
{
  public:
    YcsbGenerator(Ycsb workload, std::uint64_t records,
                  std::uint64_t seed);

    YcsbOp next();

    std::uint64_t records() const { return records_; }

    static constexpr unsigned kMaxScanLen = 100;

  private:
    Ycsb workload_;
    std::uint64_t records_;
    sim::Rng rng_;
    sim::ScrambledZipfianGenerator zipf_;
    sim::LatestGenerator latest_;
};

} // namespace bpd::wl

#endif // BPD_WORKLOADS_YCSB_HPP
