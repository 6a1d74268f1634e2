/**
 * @file
 * Error-Correcting Pointers (ECP, Schechter et al. ISCA'10) metadata for
 * one 64B line.
 *
 * Each line owns N pointer entries; an entry names one of the 512 cells
 * (9-bit address) and stores its correct value (1 bit). ECP was designed
 * for hard (stuck-at) failures; SD-PCM's LazyCorrection additionally parks
 * write-disturbance errors in the *unused* entries. Hard errors claim
 * entries permanently and with priority; WD entries are released whenever
 * the line is rewritten or corrected.
 *
 * The ECP region lives on a separate low-density (8F^2) chip, so updating
 * it can never itself trigger disturbance (Figure 7).
 */

#ifndef SDPCM_PCM_ECP_HH
#define SDPCM_PCM_ECP_HH

#include <cstdint>
#include <vector>

#include "pcm/line.hh"

namespace sdpcm {

/** Bits written into the ECP chip per recorded entry (9 addr + 1 value). */
inline constexpr unsigned kEcpBitsPerEntry = 10;

/** One ECP pointer entry. */
struct EcpEntry
{
    std::uint16_t cell = 0; //!< cell index within the line [0, 512)
    bool value = false;     //!< correct (physical) value of that cell
    bool hard = false;      //!< entry pinned by a stuck-at failure
};

/** Per-line ECP table. */
class EcpLine
{
  public:
    /** Total capacity N (ECP-N); 0 disables ECP. */
    explicit EcpLine(unsigned capacity = 0)
        : capacity_(capacity)
    {}

    unsigned capacity() const { return capacity_; }

    unsigned
    hardCount() const
    {
        unsigned n = 0;
        for (const auto& e : entries_)
            n += e.hard ? 1 : 0;
        return n;
    }

    unsigned
    wdCount() const
    {
        return static_cast<unsigned>(entries_.size()) - hardCount();
    }

    unsigned
    freeEntries() const
    {
        return capacity_ - static_cast<unsigned>(entries_.size());
    }

    const std::vector<EcpEntry>& entries() const { return entries_; }

    /**
     * Overlay the recorded correct values onto raw physical data
     * (performed by the read datapath, in parallel with the data access).
     */
    void
    apply(LineData& data) const
    {
        for (const auto& e : entries_)
            data.setBit(e.cell, e.value);
    }

    /**
     * Record one disturbed cell (correct physical value is always '0':
     * disturbance partially SETs an amorphous cell).
     *
     * @return false if no free entry remains (caller must fall back to a
     *         correction write).
     */
    bool
    recordWd(unsigned cell)
    {
        for (auto& e : entries_) {
            if (e.cell == cell) {
                // Already covered (hard or previously recorded WD).
                return true;
            }
        }
        if (entries_.size() >= capacity_)
            return false;
        reserveTable();
        entries_.push_back({static_cast<std::uint16_t>(cell), false, false});
        return true;
    }

    /**
     * Pin an entry for a stuck-at cell. Evicts one WD entry if the table
     * is full (hard errors have allocation priority).
     *
     * @return false if the table is saturated with hard entries
     *         (unrecoverable line; callers treat it as ECP exhaustion).
     */
    bool
    recordHard(unsigned cell, bool correct_value)
    {
        for (auto& e : entries_) {
            if (e.cell == cell) {
                e.hard = true;
                e.value = correct_value;
                return true;
            }
        }
        if (entries_.size() >= capacity_) {
            for (auto& e : entries_) {
                if (!e.hard) {
                    e = {static_cast<std::uint16_t>(cell), correct_value,
                         true};
                    return true;
                }
            }
            return false;
        }
        reserveTable();
        entries_.push_back(
            {static_cast<std::uint16_t>(cell), correct_value, true});
        return true;
    }

    /** Update the stored correct value of a hard entry (on line writes). */
    void
    updateHardValue(unsigned cell, bool correct_value)
    {
        for (auto& e : entries_) {
            if (e.cell == cell && e.hard) {
                e.value = correct_value;
                return;
            }
        }
    }

    /**
     * Release all WD entries (the line was rewritten or corrected).
     * @return number of entries released.
     */
    unsigned
    clearWd()
    {
        unsigned released = 0;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].hard)
                entries_[keep++] = entries_[i];
            else
                ++released;
        }
        entries_.resize(keep);
        return released;
    }

  private:
    /** Size the table for all N entries at its first use: one
     *  allocation per line instead of one per capacity doubling. */
    void
    reserveTable()
    {
        if (entries_.capacity() < capacity_)
            entries_.reserve(capacity_);
    }

    unsigned capacity_;
    std::vector<EcpEntry> entries_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_ECP_HH
