#include "common/line_index.hh"

#include <bit>
#include <utility>

namespace sdpcm {

template <typename Word>
std::vector<typename FlatIndex<Word>::Slot>
FlatIndex<Word>::sortedSlots() const
{
    // Branch-free gather: every slot is written, an empty one is
    // overwritten by the next stored slot (or the spare last entry).
    std::vector<Slot> out(std::size_t(count_) + 1);
    std::size_t n = 0;
    for (const Run& run : runs_) {
        for (const Slot& s : run.slots) {
            out[n] = s;
            n += s.key != kNone;
        }
    }
    out.pop_back();
    // Stable counting passes over 11 key bits each.
    constexpr unsigned kDigitBits = 11;
    constexpr Word kDigitMask = (Word(1) << kDigitBits) - 1;
    std::vector<Slot> tmp(out.size());
    for (unsigned shift = 0; shift < 8 * sizeof(Word); shift += kDigitBits) {
        std::size_t start[kDigitMask + 1] = {};
        for (const Slot& s : out)
            start[(s.key >> shift) & kDigitMask] += 1;
        std::size_t sum = 0;
        for (std::size_t& count : start)
            sum += std::exchange(count, sum);
        for (const Slot& s : out)
            tmp[start[(s.key >> shift) & kDigitMask]++] = s;
        out.swap(tmp);
    }
    return out;
}

template <typename Word>
void
FlatIndex<Word>::grow()
{
    std::vector<Run> old(runs_.empty()
                             ? std::size_t(1) << (kInitialBits - kRunBits)
                             : runs_.size() * 2);
    old.swap(runs_);
    shift_ = 64 - std::countr_zero(runs_.size());
    const std::size_t mask = slotCount() - 1;
    for (const Run& run : old) {
        for (const Slot& s : run.slots) {
            if (s.key == kNone)
                continue;
            std::size_t i = hash(s.key);
            while (at(i).key != kNone)
                i = (i + 1) & mask;
            at(i) = s;
        }
    }
}

template class FlatIndex<std::uint32_t>;
template class FlatIndex<std::uint64_t>;

} // namespace sdpcm
