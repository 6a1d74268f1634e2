/**
 * @file
 * Open-addressing map from an integer key to an integer position.
 *
 * The device's line store and the WD ledger both map a DIMM-wide line
 * index ((bank * rowsPerBank + row) * linesPerRow + line, which the
 * device asserts fits 32 bits) to a position in a dense side array.
 * LineIndex is that map: one array of 8-byte {key, value} slots, linear
 * probing and a load of at most 1/2. Each MMU's page table is its
 * 64-bit twin (PageIndex, 16-byte slots), since trace files may carry
 * any virtual address.
 *
 * The hash is neighbour-local: the 8 keys 8k..8k+7 have their home
 * slots in one aligned run of 8 slots (one 64-byte cache line for
 * LineIndex), and Fibonacci hashing spreads the runs. A write's left
 * and right neighbour lines, and a page walk's next page, therefore
 * probe the cache line the previous lookup just loaded.
 *
 * The table allocates nothing until its first insert (a System builds
 * one per MMU), then only ever grows by doubling; there is no erase,
 * and steady-state lookups and inserts allocate nothing.
 */

#ifndef SDPCM_COMMON_LINE_INDEX_HH
#define SDPCM_COMMON_LINE_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdpcm {

template <typename Word>
class FlatIndex
{
  public:
    /** Key of an empty slot, and find()'s "absent" value. */
    static constexpr Word kNone = ~Word(0);

    struct Slot
    {
        Word key = kNone;
        Word value = 0;
    };

    /** Number of keys stored. */
    Word size() const { return count_; }

    /** The value stored for `key`, or kNone. */
    Word
    find(Word key) const
    {
        if (runs_.empty())
            return kNone;
        const std::size_t mask = slotCount() - 1;
        for (std::size_t i = hash(key);; i = (i + 1) & mask) {
            const Slot& s = at(i);
            if (s.key == key)
                return s.value;
            if (s.key == kNone)
                return kNone;
        }
    }

    /**
     * The value stored for `key`; if absent, store and return `make()`.
     * `make` runs before the insert and must not use this index.
     */
    template <typename Make>
    Word
    findOrInsert(Word key, Make&& make)
    {
        if (runs_.empty())
            grow();
        const std::size_t mask = slotCount() - 1;
        std::size_t i = hash(key);
        while (at(i).key != kNone) {
            if (at(i).key == key)
                return at(i).value;
            i = (i + 1) & mask;
        }
        const Word value = make();
        at(i) = Slot{key, value};
        count_ += 1;
        if (2 * static_cast<std::size_t>(count_) > slotCount())
            grow();
        return value;
    }

    /**
     * Every stored {key, value}, in ascending key order (an LSD radix
     * sort, several times faster than std::sort on a run's ~10^5-10^6
     * lines). The order depends on the keys alone, not on the hash.
     */
    std::vector<Slot> sortedSlots() const;

  private:
    static constexpr unsigned kRunBits = 3;
    static constexpr unsigned kRunSlots = 1u << kRunBits;
    static constexpr unsigned kInitialBits = 10;

    /** The home of keys 8k..8k+7, aligned to a cache line. */
    struct alignas(64) Run
    {
        Slot slots[kRunSlots];
    };

    std::size_t slotCount() const { return runs_.size() * kRunSlots; }

    Slot&
    at(std::size_t i)
    {
        return runs_[i >> kRunBits].slots[i & (kRunSlots - 1)];
    }
    const Slot&
    at(std::size_t i) const
    {
        return runs_[i >> kRunBits].slots[i & (kRunSlots - 1)];
    }

    /** Home slot of a key: its run (Fibonacci hash of key / 8 into the
     *  2^(64 - shift_) runs), then its place in the run (key % 8). */
    std::size_t
    hash(Word key) const
    {
        const std::uint64_t run =
            (static_cast<std::uint64_t>(key >> kRunBits) *
             0x9e3779b97f4a7c15ULL) >> shift_;
        return static_cast<std::size_t>(
            (run << kRunBits) | (key & (kRunSlots - 1)));
    }

    /** Allocate the first table, or double it and re-insert every key
     *  (out of line: the probe loop stays small). */
    void grow();

    std::vector<Run> runs_;
    unsigned shift_ = 64;
    Word count_ = 0;
};

extern template class FlatIndex<std::uint32_t>;
extern template class FlatIndex<std::uint64_t>;

/** Line index -> pool position (device line store, WD ledger). */
using LineIndex = FlatIndex<std::uint32_t>;
/** Virtual page -> frame (one MMU's page table). */
using PageIndex = FlatIndex<std::uint64_t>;

} // namespace sdpcm

#endif // SDPCM_COMMON_LINE_INDEX_HH
