#ifndef PROPELLER_SIM_CACHES_H
#define PROPELLER_SIM_CACHES_H

/**
 * @file
 * Generic set-associative cache with LRU replacement.
 *
 * Used for the L1 instruction cache, the unified L2 (code accesses only —
 * this simulator models the frontend), and the DSB-style decoded-uop cache
 * (32-byte windows).  Sized like a scaled-down Intel Skylake; see the
 * uarch constants in machine.cc.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace propeller::sim {

/** Set-associative cache with true-LRU replacement and presence tags. */
class SetAssocCache
{
  public:
    /**
     * @param sets number of sets (power of two).
     * @param ways associativity.
     * @param block_shift log2 of the block size in bytes.
     */
    SetAssocCache(uint32_t sets, uint32_t ways, uint32_t block_shift)
        : sets_(sets), ways_(ways), blockShift_(block_shift),
          lines_(static_cast<size_t>(sets) * ways)
    {
    }

    /**
     * Access the block containing @p addr.  Inserts on miss.
     * @return true on hit.
     */
    bool
    access(uint64_t addr)
    {
        uint64_t block = addr >> blockShift_;
        uint32_t set = static_cast<uint32_t>(block & (sets_ - 1));
        Line *base = &lines_[static_cast<size_t>(set) * ways_];
        ++tick_;
        Line *victim = base;
        for (uint32_t w = 0; w < ways_; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == block) {
                line.lru = tick_;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lru < victim->lru) {
                victim = &line;
            }
        }
        victim->valid = true;
        victim->tag = block;
        victim->lru = tick_;
        return false;
    }

    /** Probe without inserting or touching LRU state. */
    bool
    contains(uint64_t addr) const
    {
        uint64_t block = addr >> blockShift_;
        uint32_t set = static_cast<uint32_t>(block & (sets_ - 1));
        const Line *base = &lines_[static_cast<size_t>(set) * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == block)
                return true;
        }
        return false;
    }

    void
    reset()
    {
        for (auto &line : lines_)
            line.valid = false;
        tick_ = 0;
    }

    uint32_t blockShift() const { return blockShift_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    uint32_t sets_;
    uint32_t ways_;
    uint32_t blockShift_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
};

} // namespace propeller::sim

#endif // PROPELLER_SIM_CACHES_H
