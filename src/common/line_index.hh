/**
 * @file
 * Open-addressing map from a 32-bit line index to a 32-bit position.
 *
 * The device's line store and the WD ledger both map a DIMM-wide line
 * index ((bank * rowsPerBank + row) * linesPerRow + line, which the
 * device asserts fits 32 bits) to a position in a dense side array.
 * LineIndex is that map: one vector of 8-byte {key, value} slots,
 * Fibonacci hashing, linear probing and a load of at most 1/2. Slots
 * only ever grow (by doubling), there is no erase, and steady-state
 * lookups and inserts allocate nothing.
 */

#ifndef SDPCM_COMMON_LINE_INDEX_HH
#define SDPCM_COMMON_LINE_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdpcm {

class LineIndex
{
  public:
    /** Key of an empty slot, and find()'s "absent" value. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    struct Slot
    {
        std::uint32_t key;
        std::uint32_t value;
    };

    LineIndex() : slots_(std::size_t(1) << kInitialBits, Slot{kNone, 0}) {}

    /** Number of keys stored. */
    std::uint32_t size() const { return count_; }

    /** The value stored for `key`, or kNone. */
    std::uint32_t
    find(std::uint32_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key);; i = (i + 1) & mask) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == kNone)
                return kNone;
        }
    }

    /**
     * The value stored for `key`; if absent, store and return `make()`.
     * `make` runs before the insert and must not use this index.
     */
    template <typename Make>
    std::uint32_t
    findOrInsert(std::uint32_t key, Make&& make)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key);
        while (slots_[i].key != kNone) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask;
        }
        const std::uint32_t value = make();
        slots_[i] = Slot{key, value};
        count_ += 1;
        if (2 * static_cast<std::size_t>(count_) > slots_.size())
            grow();
        return value;
    }

    /**
     * Every stored {key, value}, in ascending key order (an LSD radix
     * sort, several times faster than std::sort on a run's ~10^5-10^6
     * lines).
     */
    std::vector<Slot> sortedSlots() const;

  private:
    static constexpr unsigned kInitialBits = 10;

    /** Fibonacci hash of a key into the 2^(64 - shift_)-slot table. */
    std::size_t
    hash(std::uint32_t key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
            shift_);
    }

    /** Double the table and re-insert every key (out of line: the
     *  probe loop stays small). */
    void grow();

    std::vector<Slot> slots_;
    unsigned shift_ = 64 - kInitialBits;
    std::uint32_t count_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_LINE_INDEX_HH
