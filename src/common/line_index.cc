#include "common/line_index.hh"

#include <utility>

namespace sdpcm {

std::vector<LineIndex::Slot>
LineIndex::sortedSlots() const
{
    // Branch-free gather: every slot is written, an empty one is
    // overwritten by the next stored slot (or the spare last entry).
    std::vector<Slot> out(std::size_t(count_) + 1);
    std::size_t n = 0;
    for (const Slot& s : slots_) {
        out[n] = s;
        n += s.key != kNone;
    }
    out.pop_back();
    // Three stable counting passes over 11 key bits each.
    constexpr unsigned kDigitBits = 11;
    constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
    std::vector<Slot> tmp(out.size());
    for (unsigned shift = 0; shift < 32; shift += kDigitBits) {
        std::uint32_t start[kDigitMask + 1] = {};
        for (const Slot& s : out)
            start[(s.key >> shift) & kDigitMask] += 1;
        std::uint32_t sum = 0;
        for (std::uint32_t& count : start)
            sum += std::exchange(count, sum);
        for (const Slot& s : out)
            tmp[start[(s.key >> shift) & kDigitMask]++] = s;
        out.swap(tmp);
    }
    return out;
}

void
LineIndex::grow()
{
    std::vector<Slot> old(slots_.size() * 2, Slot{kNone, 0});
    old.swap(slots_);
    shift_ -= 1;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
        if (s.key == kNone)
            continue;
        std::size_t i = hash(s.key);
        while (slots_[i].key != kNone)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

} // namespace sdpcm
